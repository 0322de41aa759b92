package opt

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/parallel"
)

// Property tests for the invariants batching must not disturb: the
// genome-level memo key is a pure function of the timer vector (so every hit
// source addresses the same cache entries), job seeding is a pure function
// of (base, index) (so no batched fan-out can perturb RNG streams), and the
// evaluator's evaluations, per-core memo content and counters are a pure
// function of the genome sequence.

func TestGenomeKeyPureFunction(t *testing.T) {
	prop := func(raw []int16) bool {
		timers := make([]config.Timer, len(raw))
		for i, v := range raw {
			timers[i] = config.Timer(v)
		}
		clone := append([]config.Timer(nil), timers...)
		if genomeKey(timers) != genomeKey(clone) {
			return false
		}
		if len(timers) > 0 {
			mutated := append([]config.Timer(nil), timers...)
			mutated[len(mutated)/2]++
			if genomeKey(mutated) == genomeKey(timers) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Fatal(err)
	}
}

// Vector length is part of the key: a vector must never collide with its own
// prefix (the classic concatenation ambiguity).
func TestGenomeKeyLengthDomainSeparated(t *testing.T) {
	v := []config.Timer{3, 5, 9}
	if genomeKey(v) == genomeKey(v[:2]) {
		t.Fatal("genome key collides with its prefix")
	}
}

func TestJobSeedIndexPure(t *testing.T) {
	prop := func(base uint64, index uint16) bool {
		return parallel.JobSeed(base, int(index)) == parallel.JobSeed(base, int(index))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
	// No collisions across a realistic index range for a fixed base: a
	// collision would make two jobs share an RNG stream.
	seen := make(map[uint64]int, 1<<14)
	for i := 0; i < 1<<14; i++ {
		s := parallel.JobSeed(42, i)
		if j, ok := seen[s]; ok {
			t.Fatalf("JobSeed(42, %d) == JobSeed(42, %d)", i, j)
		}
		seen[s] = i
	}
}

// referenceEvals evaluates each gene vector with the scalar reference,
// Problem.Evaluate.
func referenceEvals(p *Problem, genomes [][]config.Timer) []Evaluation {
	out := make([]Evaluation, len(genomes))
	for i, g := range genomes {
		out[i] = p.Evaluate(p.Timers(g))
	}
	return out
}

// checkCoreMemo asserts every per-core memo entry is the exact
// analysis.IsolationHits split.
func checkCoreMemo(t *testing.T, p *Problem, memo []map[config.Timer][2]int64) {
	t.Helper()
	for i := range memo {
		for th, hm := range memo[i] {
			h, m := analysis.IsolationHits(p.Streams[i], p.L1, p.Lat, th)
			if hm != [2]int64{h, m} {
				t.Fatalf("core %d θ=%d: memo %v, IsolationHits (%d, %d)", i, th, hm, h, m)
			}
		}
	}
}

// TestEvaluatorCoreMemoDeterministic drives identical genome sequences
// through evaluators on both hit sources at Workers {1, 4, 8} and asserts
// the observable state — evaluations returned, genome-cache counters,
// computed count, and the per-core memo content — is identical everywhere,
// with every evaluation equal to Problem.Evaluate.
func TestEvaluatorCoreMemoDeterministic(t *testing.T) {
	p := problemFor("fft", 0.01, []bool{true, true, false, true})
	// Three batches with deliberate overlap (cross-batch memo hits) and
	// shared genes across genomes (per-core memo hits).
	sequences := [][][]config.Timer{
		{{1, 1, 1}, {5, 9, 13}, {5, 9, 13}, {1, 9, 13}},
		{{5, 9, 13}, {7, 9, 2}},
		{{1, 1, 1}, {7, 1, 2}, {4000, 17, 23}},
	}
	var want [][]Evaluation
	for _, seq := range sequences {
		want = append(want, referenceEvals(p, seq))
	}
	type snapshot struct {
		evals    [][]Evaluation
		computed int
		jobs     int64
		hits     int64
		misses   int64
		memo     []map[config.Timer][2]int64
	}
	run := func(workers int, curve bool) snapshot {
		e := newEvaluator(p, workers, curve, false, nil)
		if curve {
			// Force eager installation: this harness pins the curve-served
			// path itself, not the amortization gate (tested separately).
			if e.curves == nil {
				e.installCurves()
			}
		}
		e.thetaIS()
		var evals [][]Evaluation
		for _, seq := range sequences {
			evals = append(evals, e.batch(seq))
		}
		st := e.engineStats()
		return snapshot{
			evals:    evals,
			computed: e.computed,
			jobs:     st.Jobs,
			hits:     st.CacheHits,
			misses:   st.CacheMisses,
			memo:     e.coreMemo,
		}
	}
	ref := run(1, false)
	if len(ref.memo) == 0 || len(ref.memo[0]) == 0 {
		t.Fatal("batched reference evaluator built no per-core memo")
	}
	if !reflect.DeepEqual(ref.evals, want) {
		t.Fatal("batched evaluations differ from Problem.Evaluate")
	}
	checkCoreMemo(t, p, ref.memo)
	// The curve oracle reads the index directly — no per-core memo — but
	// every value it serves is an exact IsolationHits split, so evaluations
	// and every counter must still be identical. Cold curve cache first, warm
	// afterwards.
	ResetCurveCache()
	for _, curve := range []bool{false, true} {
		for _, workers := range []int{1, 4, 8} {
			got := run(workers, curve)
			if !reflect.DeepEqual(got.evals, want) {
				t.Fatalf("curve %v workers %d: evaluations differ from Problem.Evaluate", curve, workers)
			}
			if got.computed != ref.computed || got.jobs != ref.jobs ||
				got.hits != ref.hits || got.misses != ref.misses {
				t.Fatalf("curve %v workers %d: counters differ", curve, workers)
			}
			if curve && got.memo != nil {
				t.Fatalf("curve workers %d: curve oracle kept a per-core memo", workers)
			}
			if !curve && !reflect.DeepEqual(got.memo, ref.memo) {
				t.Fatalf("workers %d: per-core memo content differs", workers)
			}
		}
	}
}

// TestEvaluatorBatchChunking drives one core through 40 distinct fresh θ in
// a single batch — two full oracleBatchWidth chunks and a partial third —
// and checks the evaluations and the per-core memo against the scalar
// analysis at every worker count.
func TestEvaluatorBatchChunking(t *testing.T) {
	const fresh = 40
	if fresh <= 2*oracleBatchWidth {
		t.Fatalf("%d fresh θ do not cross two %d-wide chunk boundaries", fresh, oracleBatchWidth)
	}
	p := problemFor("fft", 0.01, []bool{true, true, false, false})
	genomes := make([][]config.Timer, fresh)
	for i := range genomes {
		genomes[i] = []config.Timer{config.Timer(3*i + 1), 7}
	}
	want := referenceEvals(p, genomes)
	var refMemo []map[config.Timer][2]int64
	for _, workers := range []int{1, 4, 8} {
		e := newEvaluator(p, workers, false, false, nil)
		if got := e.batch(genomes); !reflect.DeepEqual(got, want) {
			t.Fatalf("workers %d: evaluations differ from Problem.Evaluate", workers)
		}
		if len(e.coreMemo[0]) != fresh || len(e.coreMemo[1]) != 1 {
			t.Fatalf("workers %d: memo holds %d and %d θ, want %d and 1",
				workers, len(e.coreMemo[0]), len(e.coreMemo[1]), fresh)
		}
		checkCoreMemo(t, p, e.coreMemo)
		if refMemo == nil {
			refMemo = e.coreMemo
		} else if !reflect.DeepEqual(e.coreMemo, refMemo) {
			t.Fatalf("workers %d: per-core memo content differs", workers)
		}
	}
}
