package main

import (
	"encoding/json"
	"os"
	"runtime"
	"testing"

	"cohort/internal/config"
	"cohort/internal/experiments"
	"cohort/internal/opt"
)

// Two consecutive cold iterations must repeat their work exactly, on the
// runner and on the layer-by-layer composition, and the composition must
// reproduce the runner's result and cohort-bench's seed-42 output.
func TestColdIterationsRepeatWork(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			o := w.options(42, benchWorkers)
			ref, err := warmUp(w, o)
			if err != nil {
				t.Fatal(err)
			}
			it := runIteration(w, o, coldReset)
			if it.err != nil {
				t.Fatal(it.err)
			}
			if err := ref.checkRunner(it.out, it.work); err != nil {
				t.Fatal(err)
			}
			var work [2]layerWork
			for i := range work {
				coldReset()
				l := &layers{o: w.options(42, 1)}
				res, out, err := l.compose(w)
				if err != nil {
					t.Fatal(err)
				}
				if err := ref.checkComposition(res, out, l.work); err != nil {
					t.Fatal(err)
				}
				work[i] = l.work
			}
			if work[0] != work[1] {
				t.Fatalf("layer work %+v, then %+v", work[0], work[1])
			}
			if work[0].GenerateCalls == 0 || (work[0].OptCalls == 0 && work[0].CoreRuns == 0) {
				t.Fatalf("composition did no work: %+v", work[0])
			}
		})
	}
}

// An iteration that finds the memos of the previous one must fail the
// cold-iteration check.
func TestSkippedMemoResetFailsClosed(t *testing.T) {
	w := fig5aCold
	o := w.options(42, benchWorkers)
	ref, err := warmUp(w, o)
	if err != nil {
		t.Fatal(err)
	}
	it := runIteration(w, o, func() {
		opt.ResetCurveCache()
		runtime.GC()
	})
	if it.err != nil {
		t.Fatal(it.err)
	}
	if err := ref.checkRunner(it.out, it.work); err == nil {
		t.Fatal("an iteration on a warm memo passed the cold-iteration check")
	}
}

// An iteration that finds hit curves cached by earlier work in the process
// must fail the cold-iteration check, and the full reset must clear them.
func TestSkippedCurveResetFailsClosed(t *testing.T) {
	w := fig5aCold
	o := w.options(42, benchWorkers)
	ref, err := warmUp(w, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name     string
		reset    func()
		wantFail bool
	}{
		{"full reset", coldReset, false},
		{"curve cache kept", func() { experiments.ResetMemo(); runtime.GC() }, true},
	} {
		warmCurves(t, o)
		it := runIteration(w, o, tc.reset)
		if it.err != nil {
			t.Fatal(it.err)
		}
		err := ref.checkRunner(it.out, it.work)
		if (err != nil) != tc.wantFail {
			t.Errorf("%s: check error %v, want failure %v", tc.name, err, tc.wantFail)
		}
	}
}

// warmCurves caches the hit curves of fft's streams, as any curve-oracle
// search over them would: the surrogate prefilter builds and caches its
// curves eagerly.
func warmCurves(t *testing.T, o experiments.Options) {
	t.Helper()
	p, err := profile(o, "fft")
	if err != nil {
		t.Fatal(err)
	}
	tr := p.Generate(o.NCores, 64, o.Seed)
	cfg := config.PaperDefaults(o.NCores, 1)
	timed := make([]bool, o.NCores)
	for i := range timed {
		timed[i] = true
	}
	ga := o.GA
	ga.Surrogate = true
	if _, err := opt.Optimize(&opt.Problem{Lat: cfg.Lat, L1: cfg.L1, Streams: tr.Streams, Timed: timed}, ga); err != nil {
		t.Fatal(err)
	}
}

func TestSelfTimeSubtractsChildCover(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "iteration", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "cell", Start: 10, End: 60},
		{ID: 3, Parent: 2, Name: "core.run", Start: 20, End: 30},
		{ID: 4, Parent: 2, Name: "core.check", Start: 25, End: 40},
		{ID: 5, Parent: 1, Name: "stats.render", Start: 70, End: 75},
	}
	got := selfTimes(spans)
	want := []int64{45, 30, 10, 15, 5}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %s = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
}

// The quartiles match Python's statistics.quantiles(values, n=4).
func TestSummarizeMatchesPythonQuantiles(t *testing.T) {
	s := summarize([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if s.Q1 != 2.75 || s.Median != 5.5 || s.Q3 != 8.25 {
		t.Errorf("quartiles %v %v %v, want 2.75 5.5 8.25", s.Q1, s.Median, s.Q3)
	}
	s = summarize([]float64{3, 1, 2})
	if s.Q1 != 1 || s.Median != 2 || s.Q3 != 3 {
		t.Errorf("quartiles %v %v %v, want 1 2 3", s.Q1, s.Median, s.Q3)
	}
}

// The harness reports exactly the metrics BENCHMARK.json declares, with the
// same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		decl []struct{ Name, Unit string }
		list []metricSpec
	}{{"end_to_end", decl.EndToEnd, endToEnd}, {"per_layer", decl.PerLayer, perLayer}} {
		if len(c.decl) != len(c.list) {
			t.Fatalf("%s: BENCHMARK.json declares %d metrics, the harness reports %d", c.kind, len(c.decl), len(c.list))
		}
		for i, m := range c.list {
			if c.decl[i].Name != m.name || c.decl[i].Unit != m.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), harness %s (%s)", c.kind, i, c.decl[i].Name, c.decl[i].Unit, m.name, m.unit)
			}
		}
	}
}
