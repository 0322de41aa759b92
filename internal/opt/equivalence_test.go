package opt

import (
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/obs"
	"cohort/internal/trace"
)

// The deterministic-parallelism contract: Optimize and HillClimb return a
// byte-identical Result for every Workers value. The tests compare the full
// Result structs (timers, evaluations, histories, engine counters) between
// the forced-serial path (Workers=1) and an oversubscribed pool (Workers=8),
// table-driven over seeds. CI runs this package under -race, so scheduling
// interleavings are exercised, not just the final values.

var equivalenceSeeds = []uint64{1, 42, 7777}

func TestOptimizeSerialParallelEquivalence(t *testing.T) {
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

			gc.Workers = 1
			serial, err := Optimize(p, gc)
			if err != nil {
				t.Fatalf("%s seed %d serial: %v", cfg.name, seed, err)
			}
			gc.Workers = 8
			par, err := Optimize(p, gc)
			if err != nil {
				t.Fatalf("%s seed %d parallel: %v", cfg.name, seed, err)
			}
			if !reflect.DeepEqual(serial, par) {
				t.Errorf("%s seed %d: -j 1 and -j 8 GA results differ\nserial: %+v\nparallel: %+v",
					cfg.name, seed, serial, par)
			}
		}
	}
}

func TestHillClimbSerialParallelEquivalence(t *testing.T) {
	p := problemFor("water", 0.01, []bool{true, true, true, false})
	for _, seed := range equivalenceSeeds {
		hc := DefaultHC(seed)
		hc.Restarts, hc.MaxSteps = 3, 20

		hc.Workers = 1
		serial, err := HillClimb(p, hc)
		if err != nil {
			t.Fatalf("seed %d serial: %v", seed, err)
		}
		hc.Workers = 8
		par, err := HillClimb(p, hc)
		if err != nil {
			t.Fatalf("seed %d parallel: %v", seed, err)
		}
		if !reflect.DeepEqual(serial, par) {
			t.Errorf("seed %d: -j 1 and -j 8 hill-climb results differ\nserial: %+v\nparallel: %+v",
				seed, serial, par)
		}
	}
}

// The exact-oracle contract: the evaluator's hit source changes only the
// cost of a run, never its Result. Problem.Evaluate — the scalar walk — is
// the reference. sweepMismatch holds every evaluator batch to it; the
// batched tests below hold each Result.Eval to it; compareOracles (used by
// the curve tests) also holds the two sources' full Results to each other.
// The fail-closed tests prove a seeded fault in either source makes the
// sweep and the Result comparison trip.

// sweepMismatch drives each hit source's evaluator — the batched memo and
// eagerly installed curves — through one batch that visits every θ of each
// timed core's search range [1, θ_is], and reports whether any evaluation
// differs from Problem.Evaluate.
func sweepMismatch(t *testing.T, p *Problem) bool {
	t.Helper()
	eagerCurves(t)
	ResetCurveCache()
	memo := sourceSweepDiffers(t, p, false)
	return sourceSweepDiffers(t, p, true) || memo
}

// sourceSweepDiffers is sweepMismatch on one hit source: curve selects
// eagerly installed curves (the caller arranges eagerCurves), otherwise the
// batched memo.
func sourceSweepDiffers(t *testing.T, p *Problem, curve bool) bool {
	t.Helper()
	e := newEvaluator(p, 4, curve, false, nil)
	if curve != (e.curves != nil) {
		t.Fatalf("curve %v: evaluator installed curves %v", curve, e.curves != nil)
	}
	thetaIS := e.thetaIS()
	var top config.Timer
	for _, th := range thetaIS {
		top = max(top, th)
	}
	genomes := make([][]config.Timer, top)
	for k := range genomes {
		genes := make([]config.Timer, len(thetaIS))
		for g := range genes {
			genes[g] = min(config.Timer(k+1), thetaIS[g])
		}
		genomes[k] = genes
	}
	return !reflect.DeepEqual(e.batch(genomes), referenceEvals(p, genomes))
}

// compareOracles runs one engine configuration on each hit source — the
// batched per-core memo (curve oracle off) and eagerly installed hit curves,
// built from a cold curve cache — and reports whether either Result.Eval
// differs from Problem.Evaluate at that Result's timers, and whether the two
// Results differ anywhere.
func compareOracles(t *testing.T, p *Problem, run func(curve bool) (*Result, error)) (evalDiffers, resultsDiffer bool) {
	t.Helper()
	eagerCurves(t)
	ResetCurveCache()
	memo, err := run(false)
	if err != nil {
		t.Fatalf("batched memo: %v", err)
	}
	curve, err := run(true)
	if err != nil {
		t.Fatalf("curves: %v", err)
	}
	for _, r := range []*Result{memo, curve} {
		if !reflect.DeepEqual(r.Eval, p.Evaluate(r.Timers)) {
			evalDiffers = true
		}
	}
	return evalDiffers, !reflect.DeepEqual(memo, curve)
}

func gaRunner(p *Problem, gc GAConfig) func(curve bool) (*Result, error) {
	return func(curve bool) (*Result, error) {
		gc.OracleCurve = curve
		return Optimize(p, gc)
	}
}

func hcRunner(p *Problem, hc HCConfig) func(curve bool) (*Result, error) {
	return func(curve bool) (*Result, error) {
		hc.OracleCurve = curve
		return HillClimb(p, hc)
	}
}

func TestOptimizeBatchedOracleEquivalence(t *testing.T) {
	for _, cfg := range []struct {
		name  string
		timed []bool
	}{
		{"all-timed", []bool{true, true, true, true}},
		{"half-timed", []bool{true, true, false, false}},
	} {
		p := problemFor("fft", 0.01, cfg.timed)
		if sweepMismatch(t, p) {
			t.Errorf("%s: an evaluator batch differs from Problem.Evaluate", cfg.name)
		}
		for _, seed := range equivalenceSeeds {
			gc := DefaultGA(seed)
			gc.Pop, gc.Generations = 10, 6
			res, err := Optimize(p, gc)
			if err != nil {
				t.Fatalf("%s seed %d: %v", cfg.name, seed, err)
			}
			if !reflect.DeepEqual(res.Eval, p.Evaluate(res.Timers)) {
				t.Errorf("%s seed %d: GA Result.Eval differs from Problem.Evaluate", cfg.name, seed)
			}
		}
	}
}

func TestHillClimbBatchedOracleEquivalence(t *testing.T) {
	p := problemFor("water", 0.01, []bool{true, true, true, false})
	if sweepMismatch(t, p) {
		t.Error("an evaluator batch differs from Problem.Evaluate")
	}
	for _, seed := range equivalenceSeeds {
		hc := DefaultHC(seed)
		hc.Restarts, hc.MaxSteps = 3, 20
		res, err := HillClimb(p, hc)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !reflect.DeepEqual(res.Eval, p.Evaluate(res.Timers)) {
			t.Errorf("seed %d: hill-climb Result.Eval differs from Problem.Evaluate", seed)
		}
	}
}

// TestBatchedOracleWorkersCross runs the batched memo — curve oracle off,
// and curve oracle on but never built — at Workers {1, 4, 8}: every cell
// must produce the serial reference Result, whose Eval re-derives from
// Problem.Evaluate.
func TestBatchedOracleWorkersCross(t *testing.T) {
	old := curveBuildBudget
	curveBuildBudget = math.MaxInt64
	t.Cleanup(func() { curveBuildBudget = old })
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	gc := DefaultGA(42)
	gc.Pop, gc.Generations = 10, 6
	gc.Workers = 1
	ref, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ref.Eval, p.Evaluate(ref.Timers)) {
		t.Fatal("reference Result.Eval differs from Problem.Evaluate")
	}
	ResetCurveCache()
	for _, curve := range []bool{false, true} {
		for _, w := range []int{1, 4, 8} {
			gc.OracleCurve, gc.Workers = curve, w
			got, err := Optimize(p, gc)
			if err != nil {
				t.Fatalf("curve %v workers %d: %v", curve, w, err)
			}
			if !reflect.DeepEqual(ref, got) {
				t.Errorf("curve %v workers %d: Result differs from the serial reference", curve, w)
			}
		}
	}
}

// TestBatchedOracleAnalyzerReuse pins the batched memo's allocation: one
// fig5a-sized Optimize (fft at scale 0.05 capped to 4000 accesses, four
// timed cores, population 20 × 16 generations) must allocate no more than a
// base plus one per-job allowance for each concurrently running job. The
// base now holds the four compiled streams (8 B per access); each job's
// kernel Scratch is 8 KB, far inside its allowance, which was sized for the
// ~140 KB slab of the kernel this one replaced — an evaluator that built
// one per oracle unit allocated ~2.7 MB here. The Results must be DeepEqual
// across Workers {1, 4, 8}.
func TestBatchedOracleAnalyzerReuse(t *testing.T) {
	prof, err := trace.ProfileByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	prof = prof.Scaled(0.05)
	prof.AccessesPerCore = min(prof.AccessesPerCore, 4000)
	timed := []bool{true, true, true, true}
	p := &Problem{
		Lat:     paperLat(),
		L1:      geomL1(),
		Streams: prof.Generate(len(timed), 64, 42).Streams,
		Timed:   timed,
	}
	gc := DefaultGA(1)
	gc.Pop, gc.Generations = 20, 16
	gc.OracleCurve = false // the batched-memo path

	// Measured: ~400 KB at Workers 1, compiled streams and one Scratch
	// included. At most min(Workers, timed cores) jobs run at once, so no
	// more scratches than that may exist.
	const base, perAnalyzer = 400 << 10, 160 << 10
	var ref *Result
	for _, w := range []int{1, 4, 8} {
		gc.Workers = w
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := Optimize(p, gc)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		bytes := after.TotalAlloc - before.TotalAlloc
		ceiling := uint64(base + min(w, len(timed))*perAnalyzer)
		if bytes > ceiling {
			t.Errorf("workers %d: Optimize allocated %d bytes, ceiling %d — the evaluator is building kernel state per oracle unit", w, bytes, ceiling)
		}
		t.Logf("workers %d: %d bytes (ceiling %d)", w, bytes, ceiling)
		if ref == nil {
			ref = res
		} else if !reflect.DeepEqual(ref, res) {
			t.Errorf("workers %d: Result differs from the Workers 1 run", w)
		}
	}
}

// TestBatchedOracleFailsClosed proves the equivalence suite cannot pass
// vacuously: a seeded fault in the batched memo (a θ-proportional skew on
// every memo-served hit count) must make every comparison report a
// mismatch. If this test fails, the differential tests above are comparing
// something that cannot detect an oracle divergence.
func TestBatchedOracleFailsClosed(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	gc := DefaultGA(42)
	gc.Pop, gc.Generations = 10, 6
	TestHooks.BatchedOracleHitSkew = 1
	defer func() { TestHooks.BatchedOracleHitSkew = 0 }()
	if !sweepMismatch(t, p) {
		t.Error("seeded batched-memo fault not detected: evaluator batches equal Problem.Evaluate")
	}
	evalDiffers, resultsDiffer := compareOracles(t, p, gaRunner(p, gc))
	if !evalDiffers {
		t.Error("seeded batched-memo fault not detected: Result.Eval equals Problem.Evaluate")
	}
	if !resultsDiffer {
		t.Error("seeded batched-memo fault not detected: skewed Result equals the curve Result")
	}
}

// TestCompiledStreamFaultFailsClosed proves the equivalence checks see a
// fault in the compile step the batched memo runs on: with one resident bit
// dropped (analysis.TestHooks.CompileDropResident), the memo's sweep and the
// optimizer's reported Eval must differ from Problem.Evaluate, and the curve
// oracle must refuse to install — its construction is verified against
// GuaranteedHits, which shares nothing with the compile step.
func TestCompiledStreamFaultFailsClosed(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	analysis.TestHooks.CompileDropResident = true
	defer func() { analysis.TestHooks.CompileDropResident = false }()
	if !sourceSweepDiffers(t, p, false) {
		t.Error("seeded compile fault not detected: memo batches equal Problem.Evaluate")
	}
	gc := DefaultGA(42)
	gc.Pop, gc.Generations, gc.OracleCurve = 10, 6, false
	res, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(res.Eval, p.Evaluate(res.Timers)) {
		t.Error("seeded compile fault not detected: Result.Eval equals Problem.Evaluate")
	}
	eagerCurves(t)
	ResetCurveCache()
	defer func() {
		if recover() == nil {
			t.Error("seeded compile fault not detected: curves installed")
		}
	}()
	newEvaluator(p, 1, true, false, nil)
}

// TestOptimizeMemoCountersDeterministic pins the engine counters themselves:
// the coordinator probes the cache serially, so hits/misses must not depend
// on the worker count or the run.
func TestOptimizeMemoCountersDeterministic(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	gc := DefaultGA(42)
	gc.Pop, gc.Generations = 10, 6
	var engines []struct {
		jobs, hits, misses int64
		evals              int
	}
	for _, w := range []int{1, 4, 8} {
		gc.Workers = w
		res, err := Optimize(p, gc)
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, struct {
			jobs, hits, misses int64
			evals              int
		}{res.Engine.Jobs, res.Engine.CacheHits, res.Engine.CacheMisses, res.Evaluations})
	}
	for i := 1; i < len(engines); i++ {
		if engines[i] != engines[0] {
			t.Fatalf("engine counters vary with worker count: %+v vs %+v", engines[0], engines[i])
		}
	}
	if engines[0].jobs == 0 || engines[0].evals == 0 {
		t.Fatalf("counters not populated: %+v", engines[0])
	}
	// Pop×(Generations+1) genomes were requested; dedup must make the
	// computed count strictly smaller once elites repeat across generations.
	if engines[0].evals > 10*7 {
		t.Fatalf("computed %d evaluations for at most %d genomes", engines[0].evals, 10*7)
	}
	if engines[0].hits == 0 {
		t.Fatalf("memo-cache never hit across %d requests — elites alone must repeat", engines[0].jobs)
	}
}

// TestOptimizeMetricsSnapshotEquivalence pins the observability side of the
// contract: with a Registry and Recorder attached, the metrics snapshot and
// the Chrome trace export must be byte-identical for every worker count.
func TestOptimizeMetricsSnapshotEquivalence(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, false, false})
	for _, seed := range equivalenceSeeds {
		observe := func(workers int) (string, string) {
			gc := DefaultGA(seed)
			gc.Pop, gc.Generations = 10, 6
			gc.Workers = workers
			gc.Metrics = obs.NewRegistry()
			gc.Recorder = obs.NewRecorder()
			if _, err := Optimize(p, gc); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			var sb strings.Builder
			if err := gc.Recorder.WriteChrome(&sb); err != nil {
				t.Fatalf("seed %d workers %d: %v", seed, workers, err)
			}
			return string(gc.Metrics.Snapshot().JSON()), sb.String()
		}
		serialM, serialT := observe(1)
		parM, parT := observe(8)
		if serialM != parM {
			t.Errorf("seed %d: metrics snapshots differ across worker counts\n--- j1 ---\n%s\n--- j8 ---\n%s",
				seed, serialM, parM)
		}
		if serialT != parT {
			t.Errorf("seed %d: GA chrome traces differ across worker counts", seed)
		}
		if !strings.Contains(serialT, "generation 0") {
			t.Errorf("seed %d: recorder captured no generation spans:\n%s", seed, serialT)
		}
	}
}

// TestEvaluateHoistWCL cross-checks the hoisted O(n) WCL computation against
// analysis.WCLCoHoRT per core on a spread of timer vectors, including
// MSI-only cores (the satellite fix: the invariant part is computed once per
// vector, not once per core).
func TestEvaluateHoistWCL(t *testing.T) {
	p := problemFor("lu", 0.01, []bool{true, false, true, false})
	c := p.compile()
	for _, genes := range [][]config.Timer{
		{1, 1},
		{50, 500},
		{1139, 1},
	} {
		tv := p.Timers(genes)
		ev := c.evaluate(tv)
		for i := range tv {
			want := analysis.WCLCoHoRT(p.Lat, tv, i)
			if ev.PerCore[i].WCL != want {
				t.Fatalf("genes %v core %d: hoisted WCL %d, analysis %d", genes, i, ev.PerCore[i].WCL, want)
			}
		}
	}
}
