package lint

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// golden runs one analyzer over a testdata tree — one package, or several
// whose cross-imports share type objects — and compares its diagnostics
// against the `// want "regexp"` expectations in the sources: a stdlib
// re-implementation of the analysistest contract. Every want line must
// produce a matching diagnostic, and every diagnostic must land on a want
// line.
func golden(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	prog, diags := runTree(t, a, filepath.Join("testdata", "src", name), "cohort/lint-testdata/"+name)
	var all []*ast.File
	for _, pkg := range prog.Pkgs {
		all = append(all, pkg.Files...)
	}
	checkWants(t, prog.Fset, all, diags)
}

// runTree loads the packages under root as one Program with import paths
// under base, builds its call graph, and runs one analyzer with every
// package in scope.
func runTree(t *testing.T, a *Analyzer, root, base string) (*Program, []Diagnostic) {
	t.Helper()
	prog, err := LoadTree(root, base)
	if err != nil {
		t.Fatalf("load %s: %v", root, err)
	}
	g, err := BuildGraph(prog)
	if err != nil {
		t.Fatalf("build graph: %v", err)
	}
	return prog, Run(a, prog, g, prog.Pkgs)
}

// repo memoizes the live module's Program for the tests that lint it.
var repo struct {
	once sync.Once
	prog *Program
	err  error
}

// loadRepo type-checks the whole module once per test binary.
func loadRepo(t *testing.T) *Program {
	t.Helper()
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	repo.once.Do(func() { repo.prog, repo.err = LoadProgram("cohort/...") })
	if repo.err != nil {
		t.Fatalf("load: %v", repo.err)
	}
	return repo.prog
}

// checkWants compares diagnostics against the `// want "regexp"` expectations
// embedded in the given files: every want line must produce a matching
// diagnostic, and every diagnostic must land on a want line.
func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, diags []Diagnostic) {
	t.Helper()
	type key struct {
		file string
		line int
	}
	wants := map[key]*regexp.Regexp{}
	matched := map[key]bool{}
	wantRe := regexp.MustCompile(`// want ("(?:[^"\\]|\\.)*")`)
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat, err := strconv.Unquote(m[1])
				if err != nil {
					t.Fatalf("bad want pattern %s: %v", m[1], err)
				}
				pos := fset.Position(c.Pos())
				wants[key{pos.Filename, pos.Line}] = regexp.MustCompile(pat)
			}
		}
	}

	for _, d := range diags {
		pos := fset.Position(d.Pos)
		k := key{pos.Filename, pos.Line}
		re, ok := wants[k]
		if !ok {
			t.Errorf("%s:%d: unexpected diagnostic: %s", filepath.Base(pos.Filename), pos.Line, d.Message)
			continue
		}
		if !re.MatchString(d.Message) {
			t.Errorf("%s:%d: diagnostic %q does not match want %q",
				filepath.Base(pos.Filename), pos.Line, d.Message, re)
		}
		matched[k] = true
	}
	for k := range wants {
		if !matched[k] {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none",
				filepath.Base(k.file), k.line, wants[k])
		}
	}
}

func TestMapRangeGolden(t *testing.T)       { golden(t, MapRangeAnalyzer, "maprange") }
func TestWallTimeGolden(t *testing.T)       { golden(t, WallTimeAnalyzer, "walltime") }
func TestGlobalRandGolden(t *testing.T)     { golden(t, GlobalRandAnalyzer, "globalrand") }
func TestEventGoroutineGolden(t *testing.T) { golden(t, EventGoroutineAnalyzer, "eventgoroutine") }
func TestFloatAccumGolden(t *testing.T)     { golden(t, FloatAccumAnalyzer, "floataccum") }
func TestExhaustiveGolden(t *testing.T)     { golden(t, ExhaustiveAnalyzer, "exhaustive") }
func TestAllowDocGolden(t *testing.T)       { golden(t, AllowDocAnalyzer, "allowdoc") }

// TestAnalyzerMetadata pins the suite roster: names are unique, documented,
// and stable (annotations reference them).
func TestAnalyzerMetadata(t *testing.T) {
	seen := map[string]bool{}
	for _, a := range Analyzers() {
		if a.Name == "" || a.Doc == "" {
			t.Errorf("analyzer %+v incomplete", a)
		}
		if a.Run == nil {
			t.Errorf("analyzer %q has no Run", a.Name)
		}
		if seen[a.Name] {
			t.Errorf("duplicate analyzer name %q", a.Name)
		}
		seen[a.Name] = true
	}
	for _, want := range []string{"maprange", "walltime", "globalrand", "eventgoroutine", "floataccum", "exhaustive", "allowdoc", "hotalloc", "reachcontract", "parallelpure", "lockorder", "atomicmix", "goleak", "ctxflow", "syncmisuse"} {
		if !seen[want] {
			t.Errorf("suite is missing analyzer %q", want)
		}
	}
}

// TestRepositoryLintsClean is the in-process equivalent of
// `go run ./cmd/cohort-vet ./...`: the simulator packages themselves must
// satisfy the determinism contract.
func TestRepositoryLintsClean(t *testing.T) {
	findings, contract, err := Vet(loadRepo(t), Analyzers(), "")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
	if contract != len(contractPackages) {
		t.Errorf("checked %d contract packages, want %d", contract, len(contractPackages))
	}
}

// TestAllowAnnotationScope checks the annotation only suppresses the named
// analyzer, not the whole suite.
func TestAllowAnnotationScope(t *testing.T) {
	files := map[string]string{"scope.go": `package scope

import "time"

func f(m map[int]int) time.Time {
	//cohort:allow maprange: counting only
	for range m {
	}
	return time.Now()
}
`}
	if msgs := runSeeded(t, MapRangeAnalyzer, files); len(msgs) != 0 {
		t.Errorf("maprange not suppressed by annotation: %v", msgs)
	}
	if msgs := runSeeded(t, WallTimeAnalyzer, files); len(msgs) != 1 {
		t.Errorf("walltime diagnostics = %v, want 1 (annotation must not leak across analyzers)", msgs)
	}
}

// TestAllowDocScope: allowdoc checks only the annotations of the packages
// in scope (the contract packages, under cohort-vet).
func TestAllowDocScope(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"in/in.go":   "package in\n\n//cohort:allow maprange no colon\nfunc F() {}\n",
		"out/out.go": "package out\n\n//cohort:allow maprange no colon\nfunc G() {}\n",
	})
	prog, err := LoadTree(dir, "cohort/seeded")
	if err != nil {
		t.Fatal(err)
	}
	g, err := BuildGraph(prog)
	if err != nil {
		t.Fatal(err)
	}
	diags := Run(AllowDocAnalyzer, prog, g, []*Package{prog.Package("cohort/seeded/in")})
	if len(diags) != 1 || !strings.HasSuffix(prog.Fset.Position(diags[0].Pos).Filename, "in.go") {
		t.Fatalf("allowdoc diagnostics = %v, want one, in the package in scope", diagMessages(diags))
	}
}

// TestAllowDocEmptyReason covers the bare-reason diagnostic separately from
// the golden (a `// want` marker appended to the annotation would itself
// become the reason text).
func TestAllowDocEmptyReason(t *testing.T) {
	msgs := runSeeded(t, AllowDocAnalyzer, map[string]string{"reason.go": `package reason

//cohort:allow walltime:
func f() {}
`})
	if len(msgs) != 1 || !strings.Contains(msgs[0], "no reason") {
		t.Fatalf("empty-reason annotation diagnostics = %v, want one 'no reason' finding", msgs)
	}
}
