package experiments

import (
	"strings"
	"testing"

	"cohort/internal/obs"
)

// Each registry entry must render byte-identical output under the
// forced-serial path (Jobs=1) and an oversubscribed worker pool (Jobs=8).
// The memo is reset between runs so both compute from a cold cache; CI runs
// this package under -race so the worker interleavings themselves are
// exercised.

// renderFigure drives one registry entry to its user-visible string form.
func renderFigure(f Figure, o Options) (string, error) {
	out, err := f.Run(o, "fft")
	if err != nil {
		return "", err
	}
	var sb strings.Builder
	for _, t := range out.Tables {
		sb.WriteString(t.String())
	}
	sb.WriteString(out.Summary)
	return sb.String(), nil
}

func equivalenceOptions(seed uint64) Options {
	o := QuickOptions()
	o.Seed = seed
	o.GA.Seed = seed
	return o
}

// TestRunnersSerialParallelEquivalence asserts every registry entry
// renders byte-identically at -j 1 and -j 8, table-driven over seeds.
func TestRunnersSerialParallelEquivalence(t *testing.T) {
	seeds := []uint64{1, 42, 7777}
	for _, f := range All() {
		t.Run(f.Name, func(t *testing.T) {
			for _, seed := range seeds {
				o := equivalenceOptions(seed)

				o.Jobs, o.GA.Workers = 1, 1
				ResetMemo()
				serial, err := renderFigure(f, o)
				if err != nil {
					t.Fatalf("seed %d -j 1: %v", seed, err)
				}

				o.Jobs, o.GA.Workers = 8, 8
				ResetMemo()
				par, err := renderFigure(f, o)
				if err != nil {
					t.Fatalf("seed %d -j 8: %v", seed, err)
				}

				if serial != par {
					t.Fatalf("seed %d: -j 1 and -j 8 output differ\n--- j1 ---\n%s\n--- j8 ---\n%s", seed, serial, par)
				}
			}
		})
	}
}

// TestMetricsSerialParallelEquivalence asserts the observability layer obeys
// the same contract as the rendered output: with a fresh Registry and Recorder
// attached, every registry entry must produce byte-identical metrics snapshots and
// Chrome trace exports at -j 1 and -j 8. Runners publish post-hoc (after the
// parallel fan-out is reduced), so worker scheduling must never leak into
// either artifact.
func TestMetricsSerialParallelEquivalence(t *testing.T) {
	type observed struct {
		render  string
		metrics string
		trace   string
	}
	runObserved := func(f Figure, o Options) (observed, error) {
		reg := obs.NewRegistry()
		rec := obs.NewRecorder()
		o.Metrics, o.Recorder = reg, rec
		out, err := renderFigure(f, o)
		if err != nil {
			return observed{}, err
		}
		var sb strings.Builder
		if err := rec.WriteChrome(&sb); err != nil {
			return observed{}, err
		}
		return observed{render: out, metrics: string(reg.Snapshot().JSON()), trace: sb.String()}, nil
	}
	seeds := []uint64{1, 42, 7777}
	for _, f := range All() {
		t.Run(f.Name, func(t *testing.T) {
			for _, seed := range seeds {
				o := equivalenceOptions(seed)

				o.Jobs, o.GA.Workers = 1, 1
				ResetMemo()
				serial, err := runObserved(f, o)
				if err != nil {
					t.Fatalf("seed %d -j 1: %v", seed, err)
				}

				o.Jobs, o.GA.Workers = 8, 8
				ResetMemo()
				par, err := runObserved(f, o)
				if err != nil {
					t.Fatalf("seed %d -j 8: %v", seed, err)
				}

				if serial.metrics != par.metrics {
					t.Fatalf("seed %d: metrics snapshots differ\n--- j1 ---\n%s\n--- j8 ---\n%s",
						seed, serial.metrics, par.metrics)
				}
				if serial.trace != par.trace {
					t.Fatalf("seed %d: chrome traces differ\n--- j1 ---\n%s\n--- j8 ---\n%s",
						seed, serial.trace, par.trace)
				}
				if serial.render != par.render {
					t.Fatalf("seed %d: rendered output differs under observation", seed)
				}
			}
		})
	}
}

// TestMemoServesRepeatedCells checks the process-wide memo actually fires:
// rendering the same figure twice without a reset must serve the second pass
// from cache, and the result must stay identical to a cold run.
func TestMemoServesRepeatedCells(t *testing.T) {
	o := equivalenceOptions(42)
	o.Jobs, o.GA.Workers = 1, 1
	ResetMemo()
	first, err := Fig6(o, "all-cr")
	if err != nil {
		t.Fatal(err)
	}
	cold := MemoStats()
	second, err := Fig6(o, "all-cr")
	if err != nil {
		t.Fatal(err)
	}
	warm := MemoStats()
	if first.Render().String() != second.Render().String() {
		t.Fatal("memoized rerun rendered differently")
	}
	if warm.CacheHits <= cold.CacheHits {
		t.Fatalf("second run should hit the memo: cold %+v, warm %+v", cold, warm)
	}
	if warm.CacheMisses != cold.CacheMisses {
		t.Fatalf("second run recomputed cells: cold %+v, warm %+v", cold, warm)
	}
}

// TestMemoSharedAcrossRegeneratedTraces pins content-addressed sharing:
// Attribution regenerates the very traces Fig. 5 generated, as fresh
// objects, and must still find every optimization and simulation Fig. 5
// memoized — the memo keys are built on trace content, not on identity.
func TestMemoSharedAcrossRegeneratedTraces(t *testing.T) {
	o := equivalenceOptions(42)
	o.Jobs, o.GA.Workers = 1, 1
	ResetMemo()
	if _, err := Fig5(o, "all-cr"); err != nil {
		t.Fatal(err)
	}
	before := MemoStats()
	if _, err := Attribution(o, "all-cr"); err != nil {
		t.Fatal(err)
	}
	after := MemoStats()
	if after.CacheMisses != before.CacheMisses {
		t.Fatalf("attribution computed %d fresh cells after fig5", after.CacheMisses-before.CacheMisses)
	}
	if after.CacheHits <= before.CacheHits {
		t.Fatalf("attribution never probed the memo: before %+v, after %+v", before, after)
	}
}
