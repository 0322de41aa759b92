package lint

import (
	"path/filepath"
	"strings"
	"testing"
)

func TestLockOrderGolden(t *testing.T)  { golden(t, LockOrderAnalyzer, "lockorder") }
func TestAtomicMixGolden(t *testing.T)  { golden(t, AtomicMixAnalyzer, "atomicmix") }
func TestGoLeakGolden(t *testing.T)     { golden(t, GoLeakAnalyzer, "goleak") }
func TestCtxFlowGolden(t *testing.T)    { golden(t, CtxFlowAnalyzer, "ctxflow") }
func TestSyncMisuseGolden(t *testing.T) { golden(t, SyncMisuseAnalyzer, "syncmisuse") }

// TestServerAnnotationRejectsQualifier mirrors the hotpath-qualifier test:
// //cohort:server takes no qualifier, and trailing text must fail graph
// construction rather than silently change the checked surface.
func TestServerAnnotationRejectsQualifier(t *testing.T) {
	dir := t.TempDir()
	writeTree(t, dir, map[string]string{
		"srv/srv.go": `package srv

//cohort:server handlers
func Handle() {}
`,
	})
	prog, err := LoadTree(dir, "cohort/seeded")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	_, err = BuildGraph(prog)
	if err == nil || !strings.Contains(err.Error(), "//cohort:server takes no qualifier") {
		t.Fatalf("BuildGraph error = %v, want qualifier rejection", err)
	}
}

// TestChanOwnerRequiresReason: a //cohort:chanowner annotation with no reason
// is itself a syncmisuse finding — the waiver must be reviewable.
func TestChanOwnerRequiresReason(t *testing.T) {
	msgs := runSeeded(t, SyncMisuseAnalyzer, map[string]string{
		"ch/ch.go": `package ch

//cohort:chanowner
var events = make(chan int)

func push() { events <- 1 }

func stop() { close(events) }
`,
	})
	var reasonless, closeFinding bool
	for _, m := range msgs {
		if strings.Contains(m, "cohort:chanowner annotation has no reason") {
			reasonless = true
		}
		if strings.Contains(m, "closed here but sent to") {
			closeFinding = true
		}
	}
	if !reasonless {
		t.Errorf("diagnostics %v missing the reasonless-annotation finding", msgs)
	}
	if !closeFinding {
		t.Errorf("diagnostics %v: a reasonless annotation must not suppress the close finding", msgs)
	}
}

// concurrencyMutants maps each analyzer to its committed mutant tree under
// testdata/mutants/<name> and the diagnostic it must produce. CI runs this
// test as the seeded-regression gate: an analyzer that stops firing on its
// mutant fails the build, so none of the five can silently rot into a no-op.
var concurrencyMutants = []struct {
	analyzer *Analyzer
	want     string
}{
	{LockOrderAnalyzer, "lock-order cycle"},
	{AtomicMixAnalyzer, "accessed atomically"},
	{GoLeakAnalyzer, "no statically visible join or cancel path"},
	{CtxFlowAnalyzer, "reachable from //cohort:server root"},
	{SyncMisuseAnalyzer, "copies a value"},
}

func TestConcurrencyMutants(t *testing.T) {
	for _, m := range concurrencyMutants {
		t.Run(m.analyzer.Name, func(t *testing.T) {
			root := filepath.Join("testdata", "mutants", m.analyzer.Name)
			_, diags := runTree(t, m.analyzer, root, "cohort/mutant/"+m.analyzer.Name)
			if len(diags) == 0 {
				t.Fatalf("%s produced no diagnostics on its committed mutant: the analyzer fails open", m.analyzer.Name)
			}
			for _, d := range diags {
				if strings.Contains(d.Message, m.want) {
					return
				}
			}
			t.Fatalf("%s diagnostics on mutant lack %q: %v", m.analyzer.Name, m.want, diagMessages(diags))
		})
	}
}

func diagMessages(diags []Diagnostic) []string {
	out := make([]string, len(diags))
	for i, d := range diags {
		out[i] = d.Message
	}
	return out
}

// TestLockOrderCleanSequential pins the no-false-positive side interprocedurally:
// consistent A-then-B ordering through a callee must stay silent.
func TestLockOrderCleanSequential(t *testing.T) {
	msgs := runSeeded(t, LockOrderAnalyzer, map[string]string{
		"m/m.go": `package m

import "sync"

var a, b sync.Mutex
var n int

func lockB() {
	b.Lock()
	defer b.Unlock()
	n++
}

func One() {
	a.Lock()
	defer a.Unlock()
	lockB()
}

func Two() {
	a.Lock()
	defer a.Unlock()
	b.Lock()
	n++
	b.Unlock()
}
`,
	})
	if len(msgs) != 0 {
		t.Fatalf("consistent ordering produced diagnostics: %v", msgs)
	}
}

// TestGoLeakLiteralSpawner: a go statement inside a function literal uses the
// literal — not the enclosing declaration — as the spawner.
func TestGoLeakLiteralSpawner(t *testing.T) {
	msgs := runSeeded(t, GoLeakAnalyzer, map[string]string{
		"m/m.go": `package m

import "sync"

var n int

// Outer's WaitGroup.Wait must not excuse the literal's unjoined spawn.
func Outer() func() {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { defer wg.Done(); n++ }()
	wg.Wait()
	return func() {
		go func() { n++ }()
	}
}
`,
	})
	if len(msgs) != 1 || !strings.Contains(msgs[0], "no statically visible join") {
		t.Fatalf("diagnostics = %v, want exactly the literal's unjoined spawn", msgs)
	}
}

// TestConcurrencyAnalyzersOnRepo runs the five concurrency analyzers over the
// live module: the repository's own concurrency surface must stay clean
// without baseline entries.
func TestConcurrencyAnalyzersOnRepo(t *testing.T) {
	var analyzers []*Analyzer
	for _, m := range concurrencyMutants {
		analyzers = append(analyzers, m.analyzer)
	}
	findings, _, err := Vet(loadRepo(t), analyzers, "")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}
