package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestHotAllocGolden(t *testing.T)      { golden(t, HotAllocAnalyzer, "hotalloc") }
func TestReachContractGolden(t *testing.T) { golden(t, ReachContractAnalyzer, "reachcontract") }
func TestParallelPureGolden(t *testing.T)  { golden(t, ParallelPureAnalyzer, "parallelpure") }

// writeTree materializes a map of relative path → source into dir.
func writeTree(t *testing.T, dir string, files map[string]string) {
	t.Helper()
	for rel, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(rel))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// runSeeded writes a synthetic tree, runs one analyzer over it, and
// returns the diagnostic messages.
func runSeeded(t *testing.T, a *Analyzer, files map[string]string) []string {
	t.Helper()
	dir := t.TempDir()
	writeTree(t, dir, files)
	_, diags := runTree(t, a, dir, "cohort/seeded")
	return diagMessages(diags)
}

// TestSeededRegressions plants the three canonical contract violations the
// suite exists to catch — a wall-clock read reachable from an event handler,
// a fresh closure in the event hot path, and a captured-counter write in a
// parallel.Map job — and checks each is caught by its analyzer.
func TestSeededRegressions(t *testing.T) {
	t.Run("walltime-reachable-from-handler", func(t *testing.T) {
		msgs := runSeeded(t, ReachContractAnalyzer, map[string]string{
			"core/core.go": `package core

import "time"

//cohort:hotpath
func HandleEvent() int64 { return stamp() }

func stamp() int64 { return time.Now().UnixNano() }
`,
		})
		if len(msgs) != 1 || !strings.Contains(msgs[0], "wall-clock read time.Now") {
			t.Fatalf("reachcontract diagnostics = %v, want one wall-clock finding", msgs)
		}
		if !strings.Contains(msgs[0], "core.HandleEvent → core.stamp") {
			t.Errorf("diagnostic %q does not carry the call path", msgs[0])
		}
	})

	t.Run("closure-in-event-handler", func(t *testing.T) {
		msgs := runSeeded(t, HotAllocAnalyzer, map[string]string{
			"core/core.go": `package core

var cb func() int

//cohort:hotpath
func HandleEvent(n int) {
	cb = func() int { return n }
}
`,
		})
		if len(msgs) != 1 || !strings.Contains(msgs[0], "function literal allocates a closure") {
			t.Fatalf("hotalloc diagnostics = %v, want one closure finding", msgs)
		}
	})

	t.Run("captured-counter-in-parallel-map", func(t *testing.T) {
		msgs := runSeeded(t, ParallelPureAnalyzer, map[string]string{
			"parallel/parallel.go": `package parallel

func Map(n int, fn func(i int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}
`,
			"eval.go": `package seeded

import "cohort/seeded/parallel"

func Sweep(n int) []int {
	out := make([]int, n)
	count := 0
	parallel.Map(n, func(i int) {
		out[i] = i
		count++
	})
	_ = count
	return out
}
`,
		})
		if len(msgs) != 1 || !strings.Contains(msgs[0], `writes captured variable "count"`) {
			t.Fatalf("parallelpure diagnostics = %v, want one captured-counter finding", msgs)
		}
	})
}

// TestHotAnnotationRejectsUnknownQualifier pins the annotation vocabulary:
// a //cohort:hotpath qualifier outside {determinism, exempt} is a build
// error, not a silent no-op.
func TestHotAnnotationRejectsUnknownQualifier(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"p.go": `package p

//cohort:hotpath turbo
func F() {}
`,
	})
	prog, err := LoadTree(dir, "cohort/seeded")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if _, err := BuildGraph(prog); err == nil || !strings.Contains(err.Error(), "turbo") {
		t.Fatalf("BuildGraph error = %v, want unknown-qualifier error naming %q", err, "turbo")
	}
}

// TestGraphExemptCutsTraversal pins the exempt semantics directly on the
// graph: callees of an exempt function are not in the hot set.
func TestGraphExemptCutsTraversal(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"p.go": `package p

//cohort:hotpath
func Root() { debug() }

//cohort:hotpath exempt
func debug() { helper() }

func helper() {}
`,
	})
	prog, err := LoadTree(dir, "cohort/seeded")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	g, err := BuildGraph(prog)
	if err != nil {
		t.Fatalf("build graph: %v", err)
	}
	reach, _ := g.Reachable(HotFull)
	got := map[string]bool{}
	for n := range reach {
		got[n.Name] = true
	}
	if !got["p.Root"] || got["p.debug"] || got["p.helper"] {
		t.Errorf("hot set = %v, want Root only (exempt must cut traversal)", got)
	}
}
