package opt

import (
	"strings"
	"testing"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/obs"
	"cohort/internal/parallel"
	"cohort/internal/trace"
)

func paperLat() config.Latencies { return config.Latencies{Hit: 1, Req: 4, Data: 50, DRAM: 100} }

func geomL1() config.CacheGeometry {
	return config.CacheGeometry{SizeBytes: 16 * 1024, LineBytes: 64, Ways: 1}
}

func problemFor(name string, scale float64, timed []bool) *Problem {
	p, err := trace.ProfileByName(name)
	if err != nil {
		panic(err)
	}
	tr := p.Scaled(scale).Generate(len(timed), 64, 21)
	return &Problem{
		Lat:     paperLat(),
		L1:      geomL1(),
		Streams: tr.Streams,
		Timed:   timed,
	}
}

func TestProblemValidate(t *testing.T) {
	p := problemFor("fft", 0.005, []bool{true, true, true, true})
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := *p
	bad.Timed = []bool{true}
	if err := bad.Validate(); err == nil {
		t.Fatal("mismatched Timed accepted")
	}
	bad2 := *p
	bad2.Gamma = []int64{1}
	if err := bad2.Validate(); err == nil {
		t.Fatal("mismatched Gamma accepted")
	}
	bad3 := *p
	bad3.Streams = nil
	if err := bad3.Validate(); err == nil {
		t.Fatal("empty streams accepted")
	}
	bad4 := *p
	bad4.Gamma = []int64{0, -5, 0, 0}
	if err := bad4.Validate(); err == nil {
		t.Fatal("negative Gamma accepted")
	}
}

// TestInvalidL1GeometryRejected pins that both engines reject an L1 the
// cache model cannot build with an error instead of panicking mid-search.
func TestInvalidL1GeometryRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		geom config.CacheGeometry
	}{
		{"zero", config.CacheGeometry{}},
		{"line-not-pow2", config.CacheGeometry{SizeBytes: 1000, LineBytes: 48, Ways: 3}},
		{"zero-line", config.CacheGeometry{SizeBytes: 1024, LineBytes: 0, Ways: 1}},
		{"zero-ways", config.CacheGeometry{SizeBytes: 1024, LineBytes: 64, Ways: 0}},
		{"size-not-divisible", config.CacheGeometry{SizeBytes: 1000, LineBytes: 64, Ways: 1}},
		{"sets-not-pow2", config.CacheGeometry{SizeBytes: 3 * 64, LineBytes: 64, Ways: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			p := problemFor("fft", 0.005, []bool{true, true, false, false})
			p.L1 = tc.geom
			if _, err := Optimize(p, DefaultGA(1)); err == nil {
				t.Error("Optimize accepted the geometry")
			}
			if _, err := HillClimb(p, DefaultHC(1)); err == nil {
				t.Error("HillClimb accepted the geometry")
			}
		})
	}
}

func TestTimersExpansion(t *testing.T) {
	p := problemFor("fft", 0.005, []bool{true, false, true, false})
	got := p.Timers([]config.Timer{7, 9})
	want := []config.Timer{7, config.TimerMSI, 9, config.TimerMSI}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Timers = %v, want %v", got, want)
		}
	}
}

func TestEvaluateMatchesAnalysis(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, false, false})
	timers := p.Timers([]config.Timer{100, 50})
	ev := p.Evaluate(timers)
	for i := range p.Streams {
		wantWCL := analysis.WCLCoHoRT(p.Lat, timers, i)
		if ev.PerCore[i].WCL != wantWCL {
			t.Fatalf("core %d WCL %d != %d", i, ev.PerCore[i].WCL, wantWCL)
		}
	}
	if ev.Objective <= 0 {
		t.Fatal("objective not positive")
	}
	if !ev.Feasible() {
		t.Fatal("unconstrained evaluation must be feasible")
	}
}

func TestEvaluateConstraintViolation(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, true, true})
	p.Gamma = []int64{1, 0, 0, 0} // impossible requirement on core 0
	ev := p.Evaluate(p.Timers([]config.Timer{100, 100, 100, 100}))
	if ev.Feasible() {
		t.Fatal("impossible Γ reported feasible")
	}
	if fitness(&ev) < 1e18 {
		t.Fatal("infeasible fitness must dominate any feasible objective")
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	p := problemFor("water", 0.01, []bool{true, true, false, false})
	gc := DefaultGA(5)
	gc.Pop, gc.Generations = 12, 8
	a, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Timers {
		if a.Timers[i] != b.Timers[i] {
			t.Fatalf("nondeterministic GA: %v vs %v", a.Timers, b.Timers)
		}
	}
	if a.Evaluations == 0 || len(a.BestHistory) != gc.Generations {
		t.Fatalf("bookkeeping: evals=%d history=%d", a.Evaluations, len(a.BestHistory))
	}
}

func TestOptimizeImprovesOverExtremes(t *testing.T) {
	// The GA's best must be at least as good as both seeded extremes
	// (θ=1 everywhere and θ=θ_is everywhere), which are in the initial
	// population by construction.
	p := problemFor("fft", 0.02, []bool{true, true, true, true})
	gc := DefaultGA(7)
	gc.Pop, gc.Generations = 16, 12
	res, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	ones := p.Evaluate(p.Timers([]config.Timer{1, 1, 1, 1}))
	sat := p.Evaluate(p.Timers(res.ThetaIS))
	if res.Eval.Objective > ones.Objective || res.Eval.Objective > sat.Objective {
		t.Fatalf("GA best %.1f worse than extremes (%.1f, %.1f)",
			res.Eval.Objective, ones.Objective, sat.Objective)
	}
	// Monotone best-so-far history.
	for i := 1; i < len(res.BestHistory); i++ {
		if res.BestHistory[i] > res.BestHistory[i-1] {
			t.Fatal("best-so-far history regressed")
		}
	}
	// Genes respect the θ_is bounds.
	g := 0
	for i, timed := range p.Timed {
		if !timed {
			continue
		}
		if res.Timers[i] < 1 || res.Timers[i] > res.ThetaIS[g] {
			t.Fatalf("gene %d = %v outside [1, %v]", g, res.Timers[i], res.ThetaIS[g])
		}
		g++
	}
}

func TestOptimizeRespectsFeasibleConstraint(t *testing.T) {
	p := problemFor("fft", 0.02, []bool{true, true, true, true})
	// A requirement satisfiable with θ=1 everywhere: use that evaluation
	// plus slack as Γ for core 0.
	ones := p.Evaluate(p.Timers([]config.Timer{1, 1, 1, 1}))
	p.Gamma = []int64{ones.PerCore[0].WCMLBound + 1000, 0, 0, 0}
	gc := DefaultGA(11)
	gc.Pop, gc.Generations = 16, 12
	res, err := Optimize(p, gc)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Eval.Feasible() {
		t.Fatalf("feasible point exists (θ=1…) but GA returned violation %.3f", res.Eval.Violation)
	}
	if res.Eval.PerCore[0].WCMLBound > p.Gamma[0] {
		t.Fatalf("returned point violates Γ: %d > %d", res.Eval.PerCore[0].WCMLBound, p.Gamma[0])
	}
}

func TestOptimizeNoTimedCores(t *testing.T) {
	p := problemFor("fft", 0.005, []bool{false, false, false, false})
	res, err := Optimize(p, DefaultGA(1))
	if err != nil {
		t.Fatal(err)
	}
	for _, th := range res.Timers {
		if th != config.TimerMSI {
			t.Fatalf("no-timed result: %v", res.Timers)
		}
	}
	if res.Evaluations != 1 {
		t.Fatalf("evaluations = %d, want 1", res.Evaluations)
	}
}

func TestOptimizeConfigValidation(t *testing.T) {
	p := problemFor("fft", 0.005, []bool{true, true, true, true})
	if _, err := Optimize(p, GAConfig{Pop: 1, Generations: 5}); err == nil {
		t.Fatal("degenerate population accepted")
	}
	if _, err := Optimize(p, GAConfig{Pop: 4, Generations: 0}); err == nil {
		t.Fatal("zero generations accepted")
	}
	gc := DefaultGA(1)
	gc.Elite = gc.Pop
	if _, err := Optimize(p, gc); err == nil {
		t.Fatal("elite ≥ pop accepted")
	}
}

// TestDegenerateConfigErrorsNameField pins that a degenerate engine config
// is reported by the offending field alone: formatting the whole config
// would print the Progress pointer, and the message would change run to
// run.
func TestDegenerateConfigErrorsNameField(t *testing.T) {
	p := problemFor("fft", 0.005, []bool{true, true, true, true})
	h := obs.NewRunTracker(obs.WallClock{}).Register("test", "degenerate")
	ga := func(pop, gens int) error {
		gc := DefaultGA(1)
		gc.Pop, gc.Generations, gc.Elite, gc.Progress = pop, gens, 0, h
		_, err := Optimize(p, gc)
		return err
	}
	hc := func(restarts, steps int) error {
		c := DefaultHC(1)
		c.Restarts, c.MaxSteps, c.Progress = restarts, steps, h
		_, err := HillClimb(p, c)
		return err
	}
	for _, tc := range []struct {
		name, field string
		err         error
	}{
		{"ga pop", "Pop 1", ga(1, 5)},
		{"ga gens", "Generations 0", ga(4, 0)},
		{"hc restarts", "Restarts 0", hc(0, 5)},
		{"hc steps", "MaxSteps -1", hc(1, -1)},
	} {
		if tc.err == nil {
			t.Errorf("%s: degenerate config accepted", tc.name)
			continue
		}
		if msg := tc.err.Error(); !strings.Contains(msg, tc.field) || strings.Contains(msg, "0x") {
			t.Errorf("%s: error %q should name %q and print no pointer", tc.name, msg, tc.field)
		}
	}
}

// TestGAConfigKey pins which GA fields reach cache and config keys: every
// result-affecting field moves the key, the result-neutral ones (Workers,
// OracleCurve, the observability hooks) do not, and the surrogate joins
// only when enabled, so surrogate-off keys stay byte-stable.
func TestGAConfigKey(t *testing.T) {
	key := func(g GAConfig) string { return g.Key(parallel.NewKey("test")).Sum() }
	base := DefaultGA(1)
	ref := key(base)
	for name, mutate := range map[string]func(*GAConfig){
		"Workers":     func(g *GAConfig) { g.Workers = 8 },
		"OracleCurve": func(g *GAConfig) { g.OracleCurve = !g.OracleCurve },
		"Progress":    func(g *GAConfig) { g.Progress = obs.NewRunTracker(obs.WallClock{}).Register("t", "k") },
		"off margin":  func(g *GAConfig) { g.SurrogateMargin = 0.5 },
	} {
		g := base
		mutate(&g)
		if key(g) != ref {
			t.Errorf("%s moved the key", name)
		}
	}
	for name, mutate := range map[string]func(*GAConfig){
		"Pop":           func(g *GAConfig) { g.Pop++ },
		"Generations":   func(g *GAConfig) { g.Generations++ },
		"Elite":         func(g *GAConfig) { g.Elite++ },
		"TournamentK":   func(g *GAConfig) { g.TournamentK++ },
		"CrossoverProb": func(g *GAConfig) { g.CrossoverProb /= 2 },
		"MutationProb":  func(g *GAConfig) { g.MutationProb /= 2 },
		"Seed":          func(g *GAConfig) { g.Seed++ },
		"Surrogate":     func(g *GAConfig) { g.OracleCurve, g.Surrogate = true, true },
	} {
		g := base
		mutate(&g)
		if key(g) == ref {
			t.Errorf("%s left the key unchanged", name)
		}
	}
}

func BenchmarkEvaluate(b *testing.B) {
	p := problemFor("fft", 0.05, []bool{true, true, true, true})
	timers := p.Timers([]config.Timer{100, 50, 20, 10})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Evaluate(timers)
	}
}

func TestHillClimbDeterministic(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, false, false})
	hc := DefaultHC(3)
	hc.Restarts, hc.MaxSteps = 3, 20
	a, err := HillClimb(p, hc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := HillClimb(p, hc)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Timers {
		if a.Timers[i] != b.Timers[i] {
			t.Fatalf("nondeterministic HC: %v vs %v", a.Timers, b.Timers)
		}
	}
	if a.Evaluations == 0 {
		t.Fatal("no oracle calls recorded")
	}
}

func TestHillClimbComparableToGA(t *testing.T) {
	p := problemFor("water", 0.02, []bool{true, true, true, true})
	gaRes, err := Optimize(p, DefaultGA(1))
	if err != nil {
		t.Fatal(err)
	}
	hcRes, err := HillClimb(p, DefaultHC(1))
	if err != nil {
		t.Fatal(err)
	}
	// Both engines drive the same oracle; neither should be wildly worse.
	if hcRes.Eval.Objective > 1.5*gaRes.Eval.Objective {
		t.Fatalf("HC objective %.1f far above GA %.1f", hcRes.Eval.Objective, gaRes.Eval.Objective)
	}
	if gaRes.Eval.Objective > 1.5*hcRes.Eval.Objective {
		t.Fatalf("GA objective %.1f far above HC %.1f", gaRes.Eval.Objective, hcRes.Eval.Objective)
	}
	// Both respect the gene bounds.
	for _, r := range []*Result{gaRes, hcRes} {
		g := 0
		for i, timed := range p.Timed {
			if !timed {
				continue
			}
			if r.Timers[i] < 1 || r.Timers[i] > r.ThetaIS[g] {
				t.Fatalf("timer %v outside [1, %v]", r.Timers[i], r.ThetaIS[g])
			}
			g++
		}
	}
}

func TestHillClimbRespectsConstraint(t *testing.T) {
	p := problemFor("fft", 0.02, []bool{true, true, true, true})
	ones := p.Evaluate(p.Timers([]config.Timer{1, 1, 1, 1}))
	p.Gamma = []int64{ones.PerCore[0].WCMLBound + 1000, 0, 0, 0}
	res, err := HillClimb(p, DefaultHC(5))
	if err != nil {
		t.Fatal(err)
	}
	if !res.Eval.Feasible() {
		t.Fatalf("feasible point exists but HC returned violation %.3f", res.Eval.Violation)
	}
}

func TestHillClimbValidation(t *testing.T) {
	p := problemFor("fft", 0.005, []bool{true, true, true, true})
	if _, err := HillClimb(p, HCConfig{Restarts: 0, MaxSteps: 5}); err == nil {
		t.Fatal("zero restarts accepted")
	}
	if _, err := HillClimb(p, HCConfig{Restarts: 1, MaxSteps: 0}); err == nil {
		t.Fatal("zero steps accepted")
	}
	none := problemFor("fft", 0.005, []bool{false, false, false, false})
	res, err := HillClimb(none, DefaultHC(1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Timers[0] != config.TimerMSI {
		t.Fatal("no-timed HC result wrong")
	}
}
