package lint

import (
	"go/ast"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// golden runs one analyzer over a testdata package and compares its
// diagnostics against the `// want "regexp"` expectations in the sources —
// a stdlib re-implementation of the analysistest contract: every want line
// must produce a matching diagnostic, and every diagnostic must land on a
// want line.
func golden(t *testing.T, a *Analyzer, name string) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	pkg := loadPackage(t, dir, "cohort/lint-testdata/"+name)
	diags, err := Run(a, pkg)
	if err != nil {
		t.Fatalf("run %s: %v", a.Name, err)
	}
	checkWants(t, pkg.Fset, pkg.Files, diags)
}

// loadPackage loads the one package in dir, a testdata directory `go list`
// does not see, under the given import path.
func loadPackage(t *testing.T, dir, path string) *Package {
	t.Helper()
	prog, err := LoadTree(dir, path)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	return prog.Package(path)
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
		if (a.Run == nil) == (a.RunProgram == nil) {
			t.Errorf("analyzer %q must set exactly one of Run (per-package) and RunProgram (whole-program)", a.Name)
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
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
	contract := map[string]bool{
		"cohort/internal/sim":       true,
		"cohort/internal/core":      true,
		"cohort/internal/bus":       true,
		"cohort/internal/cache":     true,
		"cohort/internal/coherence": true,
		"cohort/internal/memctrl":   true,
		"cohort/internal/sched":     true,
		"cohort/internal/trace":     true,
		"cohort/internal/opt":       true,
		"cohort/internal/invariant": true,
		"cohort/internal/model":     true,
	}
	prog, err := LoadProgram("cohort/...")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	g, err := BuildGraph(prog)
	if err != nil {
		t.Fatalf("build graph: %v", err)
	}
	checked := 0
	for _, pkg := range prog.Pkgs {
		if !contract[pkg.Path] {
			continue
		}
		checked++
		for _, a := range Analyzers() {
			if a.Run == nil {
				continue
			}
			diags, err := Run(a, pkg)
			if err != nil {
				t.Fatalf("%s on %s: %v", a.Name, pkg.Path, err)
			}
			for _, d := range diags {
				t.Errorf("%s: %s [%s]", pkg.Fset.Position(d.Pos), d.Message, a.Name)
			}
		}
	}
	if checked != len(contract) {
		t.Errorf("checked %d contract packages, want %d", checked, len(contract))
	}
	for _, a := range ProgramAnalyzers() {
		diags, err := RunOnProgram(a, prog, g)
		if err != nil {
			t.Fatalf("%s: %v", a.Name, err)
		}
		for _, d := range diags {
			t.Errorf("%s: %s [%s]", prog.Fset.Position(d.Pos), d.Message, a.Name)
		}
	}
}

// TestAllowAnnotationScope checks the annotation only suppresses the named
// analyzer, not the whole suite.
func TestAllowAnnotationScope(t *testing.T) {
	dir := t.TempDir()
	src := strings.Join([]string{
		"package scope",
		"import \"time\"",
		"func f(m map[int]int) time.Time {",
		"\t//cohort:allow maprange: counting only",
		"\tfor range m {",
		"\t}",
		"\treturn time.Now()",
		"}",
		"",
	}, "\n")
	if err := writeFile(filepath.Join(dir, "scope.go"), src); err != nil {
		t.Fatal(err)
	}
	pkg := loadPackage(t, dir, "cohort/lint-testdata/scope")
	if diags, _ := Run(MapRangeAnalyzer, pkg); len(diags) != 0 {
		t.Errorf("maprange not suppressed by annotation: %v", diags)
	}
	diags, err := Run(WallTimeAnalyzer, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 {
		t.Errorf("walltime diagnostics = %d, want 1 (annotation must not leak across analyzers)", len(diags))
	}
}

// TestAllowDocEmptyReason covers the bare-reason diagnostic separately from
// the golden (a `// want` marker appended to the annotation would itself
// become the reason text).
func TestAllowDocEmptyReason(t *testing.T) {
	dir := t.TempDir()
	src := strings.Join([]string{
		"package reason",
		"//cohort:allow walltime:",
		"func f() {}",
		"",
	}, "\n")
	if err := writeFile(filepath.Join(dir, "reason.go"), src); err != nil {
		t.Fatal(err)
	}
	pkg := loadPackage(t, dir, "cohort/lint-testdata/reason")
	diags, err := Run(AllowDocAnalyzer, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 1 || !strings.Contains(diags[0].Message, "no reason") {
		t.Fatalf("empty-reason annotation diagnostics = %v, want one 'no reason' finding", diags)
	}
}

func writeFile(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}
