package opt

import (
	"reflect"
	"testing"

	"cohort/internal/analysis"
	"cohort/internal/config"
)

// The curve-oracle contract: OracleCurve changes only the cost of a run,
// never its Result — for both engines, every seed, cold and warm curve
// cache, and every worker count. Problem.Evaluate is the reference and the
// batched memo the other source (see compareOracles). The fail-closed test
// proves a seeded curve fault (a skewed breakpoint) makes these comparisons
// trip, and the surrogate tests pin tier 2: pruning saves evaluations
// without ever moving the reported optimum.

// eagerCurves forces curve installation regardless of run size for one
// test: these suites pin the curve-served query path itself; the
// amortization gate that decides *when* curves install has its own test
// (TestCurveAmortizationGate). No opt test runs parallel, so mutating the
// package var is race-free.
func eagerCurves(t *testing.T) {
	t.Helper()
	old := curveBuildBudget
	curveBuildBudget = 0
	t.Cleanup(func() { curveBuildBudget = old })
}

func TestOptimizeCurveOracleEquivalence(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		timed []bool
	}{
		{"all-timed", []bool{true, true, true, true}},
		{"half-timed", []bool{true, true, false, false}},
	} {
		p := problemFor("fft", 0.01, cfg.timed)
		for _, seed := range equivalenceSeeds {
			gc := DefaultGA(seed)
			gc.Pop, gc.Generations = 10, 6
			// compareOracles builds the curves from a cold cache; the warm
			// re-run below fetches them.
			if evalDiffers, resultsDiffer := compareOracles(t, p, gaRunner(p, gc)); evalDiffers || resultsDiffer {
				t.Errorf("%s seed %d (cold cache): eval mismatch %v, result mismatch %v",
					cfg.name, seed, evalDiffers, resultsDiffer)
			}
			memo, err := Optimize(p, gc)
			if err != nil {
				t.Fatal(err)
			}
			gc.OracleCurve = true
			warm, err := Optimize(p, gc)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(memo, warm) {
				t.Errorf("%s seed %d: batched-memo and curve (warm cache) GA results differ\nmemo: %+v\ncurve: %+v",
					cfg.name, seed, memo, warm)
			}
		}
	}
}

func TestHillClimbCurveOracleEquivalence(t *testing.T) {
	p := problemFor("water", 0.01, []bool{true, true, true, false})
	for _, seed := range equivalenceSeeds {
		hc := DefaultHC(seed)
		hc.Restarts, hc.MaxSteps = 3, 20
		if evalDiffers, resultsDiffer := compareOracles(t, p, hcRunner(p, hc)); evalDiffers || resultsDiffer {
			t.Errorf("seed %d: eval mismatch %v, result mismatch %v", seed, evalDiffers, resultsDiffer)
		}
	}
}

// TestCurveOracleWorkersCross is the acceptance grid: eagerly installed
// curves at Workers {1, 4, 8}, cold cache first and warm afterwards, every
// cell against the serial batched-memo reference.
func TestCurveOracleWorkersCross(t *testing.T) {
	eagerCurves(t)
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	gc := DefaultGA(42)
	gc.Pop, gc.Generations = 10, 6
	gc.Workers = 1
	ref, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	ResetCurveCache()
	gc.OracleCurve = true
	for _, cache := range []string{"cold", "warm"} {
		for _, w := range []int{1, 4, 8} {
			gc.Workers = w
			got, err := Optimize(p, gc)
			if err != nil {
				t.Fatalf("%s cache workers %d: %v", cache, w, err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("%s cache workers %d: curve Result differs from the batched-memo reference", cache, w)
			}
		}
	}
}

// TestCurveOracleFailsClosed proves the curve equivalence suite cannot pass
// vacuously: a seeded breakpoint skew — applied after construction
// verification, so only the query path is wrong — must make the evaluator
// sweep and the Result comparison report a mismatch. (The reported optimum
// itself may sit away from every skewed boundary, so Result.Eval alone is
// not required to trip.)
func TestCurveOracleFailsClosed(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	gc := DefaultGA(42)
	gc.Pop, gc.Generations = 10, 6
	analysis.TestHooks.CurveBreakpointSkew = 1
	defer func() { analysis.TestHooks.CurveBreakpointSkew = 0 }()
	if !sweepMismatch(t, p) {
		t.Error("seeded curve fault not detected: evaluator batches equal Problem.Evaluate")
	}
	if _, resultsDiffer := compareOracles(t, p, gaRunner(p, gc)); !resultsDiffer {
		t.Error("seeded curve fault not detected: skewed curve Result equals the batched-memo Result")
	}
}

// TestSurrogatePrunes pins tier 2's effect and its guarantee at once: with
// the prefilter on, the GA computes strictly fewer exact evaluations, yet
// the reported optimum is exactly the exact run's — on this workload the
// curves are complete, so the surrogate equals the exact fitness wherever
// it is consulted and pruning can only skip children that provably cannot
// improve the best. The returned Eval must also re-derive bit-identically
// from the returned timers.
func TestSurrogatePrunes(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	gc := DefaultGA(42)
	gc.Pop, gc.Generations = 20, 12
	exact, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	gc.OracleCurve, gc.Surrogate = true, true
	surr, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	if surr.Evaluations >= exact.Evaluations {
		t.Fatalf("surrogate pruned nothing: %d evaluations vs %d exact", surr.Evaluations, exact.Evaluations)
	}
	if !reflect.DeepEqual(surr.Timers, exact.Timers) || !reflect.DeepEqual(surr.Eval, exact.Eval) {
		t.Errorf("surrogate moved the optimum:\nexact: %v %+v\nsurrogate: %v %+v",
			exact.Timers, exact.Eval, surr.Timers, surr.Eval)
	}
	if re := p.Evaluate(surr.Timers); !reflect.DeepEqual(re, surr.Eval) {
		t.Errorf("reported Eval does not re-derive from reported Timers")
	}
}

// TestSurrogateHugeMarginIdentical pins the degenerate property: a margin
// wide enough to keep every child makes the surrogate run bit-identical to
// the exact curve run — Evaluations, Engine counters and all.
func TestSurrogateHugeMarginIdentical(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	gc := DefaultGA(7777)
	gc.Pop, gc.Generations = 10, 6
	gc.OracleCurve = true
	exact, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	gc.Surrogate, gc.SurrogateMargin = true, 1e18
	wide, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(exact, wide) {
		t.Errorf("huge-margin surrogate run differs from exact curve run\nexact: %+v\nsurrogate: %+v", exact, wide)
	}
}

// TestSurrogateFailsClosed proves tier 2 inherits the fail-closed property:
// under a seeded breakpoint skew the surrogate run must diverge from the
// clean surrogate run — the skew reaches both the surrogate fitness and the
// exact re-check's memo, so it cannot cancel out.
func TestSurrogateFailsClosed(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	gc := DefaultGA(42)
	gc.Pop, gc.Generations = 10, 6
	gc.OracleCurve, gc.Surrogate = true, true
	clean, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	analysis.TestHooks.CurveBreakpointSkew = 1
	defer func() { analysis.TestHooks.CurveBreakpointSkew = 0 }()
	skewed, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(clean, skewed) {
		t.Fatal("seeded curve fault not detected through the surrogate tier")
	}
}

// TestSurrogateRequiresCurve pins the configuration contract: tier 2 cannot
// run without tier 1.
func TestSurrogateRequiresCurve(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	gc := DefaultGA(1)
	gc.Surrogate = true
	if _, err := Optimize(p, gc); err == nil {
		t.Fatal("Surrogate without OracleCurve accepted")
	}
}

// TestCurveAmortizationGate pins the installation policy itself: a cold run
// shorter than curveBuildBudget never constructs an index (the batched memo
// serves everything), a longer run installs the curves mid-flight at the
// budget boundary and drops the memo, a warm evaluator installs eagerly at
// construction — and the evaluations equal Problem.Evaluate on every side
// of every switch.
func TestCurveAmortizationGate(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	genomes := make([][]config.Timer, 24)
	for i := range genomes {
		th := config.Timer(i + 1)
		genomes[i] = []config.Timer{th, th + 3, 2*th + 1, th}
	}
	want := referenceEvals(p, genomes)

	old := curveBuildBudget
	t.Cleanup(func() { curveBuildBudget = old })

	// Short cold run: the budget is out of reach, so the index must never be
	// built and the batched memo must serve the whole run.
	curveBuildBudget = int64(len(genomes)) + 1
	ResetCurveCache()
	lazy := newEvaluator(p, 1, true, false, nil)
	if lazy.curves != nil {
		t.Fatal("cold evaluator installed curves at construction despite the budget")
	}
	if got := lazy.batch(genomes); !reflect.DeepEqual(got, want) {
		t.Fatal("lazy curve evaluator diverged from Problem.Evaluate")
	}
	if lazy.curves != nil {
		t.Fatalf("curves built below the budget (%d misses < %d)", lazy.cacheMisses, curveBuildBudget)
	}

	// Crossing the budget mid-run: the second batch must trigger
	// installation, and the combined results must still match.
	curveBuildBudget = 8
	ResetCurveCache()
	mid := newEvaluator(p, 1, true, false, nil)
	first := mid.batch(genomes[:12])
	if mid.curves == nil || mid.coreMemo != nil {
		t.Fatalf("curves not installed after %d misses with budget %d", mid.cacheMisses, curveBuildBudget)
	}
	second := mid.batch(genomes[12:])
	if got := append(append([]Evaluation(nil), first...), second...); !reflect.DeepEqual(got, want) {
		t.Fatal("mid-run curve switch changed evaluations")
	}

	// Warm process cache: the curves built above are memoized, so a fresh
	// evaluator over the same problem installs them eagerly — a fetch, not
	// a build — even though the budget is far away.
	curveBuildBudget = 1 << 30
	warm := newEvaluator(p, 1, true, false, nil)
	if warm.curves == nil {
		t.Fatal("warm evaluator did not install cached curves eagerly")
	}
	if got := warm.batch(genomes); !reflect.DeepEqual(got, want) {
		t.Fatal("warm curve evaluator diverged from Problem.Evaluate")
	}
}
