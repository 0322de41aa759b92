// Package opt implements the paper's requirement-aware optimization engine
// (§V, Fig. 2a): a genetic algorithm explores the space of timer vectors Θ,
// querying the static cache analysis as a black-box oracle for the
// Θ → M_hit relationship, and minimizes the system's average per-request
// worst-case memory latency subject to the per-task WCML requirements (C1).
//
// The paper used Matlab's GA with default parameters; this is a
// from-scratch, deterministic, stdlib-only equivalent with tournament
// selection, uniform crossover, geometric mutation, and elitism.
//
// Oracle evaluations are independent of each other, so both engines batch
// them through internal/parallel: chromosomes are generated on the
// coordinating goroutine (keeping the RNG stream identical to a serial run),
// deduped against a content-addressed memo-cache, and only the distinct
// misses are fanned out across workers. Results land in index-addressed
// slots, so every Result is byte-identical for every worker count.
package opt

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/obs"
	"cohort/internal/parallel"
	"cohort/internal/stats"
	"cohort/internal/trace"
)

// Problem describes one optimization instance: the platform latencies and
// L1 geometry, the per-core workload streams, which cores receive a
// GA-chosen timer (the rest stay at MSI, θ = −1), and the per-core WCML
// requirements Γ (0 = unconstrained).
type Problem struct {
	// Lat holds the platform latencies (SW, L_hit).
	Lat config.Latencies
	// L1 is the private-cache geometry used by the analysis oracle.
	L1 config.CacheGeometry
	// Streams holds the per-core access streams (Λ_i = len(Streams[i])).
	Streams []trace.Stream
	// Timed marks the cores whose timers the GA optimizes; a false entry
	// fixes that core to θ = −1 (MSI).
	Timed []bool
	// Gamma is the per-core WCML requirement in cycles (0 = none). It is
	// enforced only for timed cores — constraint C1.
	Gamma []int64
}

// msiObjectiveWeight scales the contribution of non-timed (MSI) cores'
// Eq.-3 bounds to the objective. The paper's objective sums over all cores;
// taken literally with all-miss MSI terms it pushes every timer toward its
// minimum, while ignoring MSI cores entirely lets a lone critical core
// starve its co-runners' average case. This weight keeps the timed cores'
// bounds in charge while pricing the latency their timers impose on
// best-effort cores.
const msiObjectiveWeight = 0.01

// Validate checks the problem dimensions, that no Γ is negative, and the
// latencies and L1 geometry.
func (p *Problem) Validate() error {
	n := len(p.Streams)
	if n == 0 {
		return fmt.Errorf("opt: no streams")
	}
	if len(p.Timed) != n {
		return fmt.Errorf("opt: Timed has %d entries for %d cores", len(p.Timed), n)
	}
	if p.Gamma != nil && len(p.Gamma) != n {
		return fmt.Errorf("opt: Gamma has %d entries for %d cores", len(p.Gamma), n)
	}
	for i, g := range p.Gamma {
		if g < 0 {
			return fmt.Errorf("opt: core %d Gamma %d is negative", i, g)
		}
	}
	if p.Lat.Hit < 1 || p.Lat.Req < 1 || p.Lat.Data < 1 {
		return fmt.Errorf("opt: invalid latencies %+v", p.Lat)
	}
	return p.L1.Validate("L1")
}

// Timers materializes a full timer vector from a chromosome (one gene per
// timed core, in core order).
func (p *Problem) Timers(genes []config.Timer) []config.Timer {
	out := make([]config.Timer, len(p.Streams))
	g := 0
	for i := range p.Streams {
		if p.Timed[i] {
			out[i] = genes[g]
			g++
		} else {
			out[i] = config.TimerMSI
		}
	}
	return out
}

// timedCores returns the indexes of the timed cores, in core order — gene g
// of a chromosome drives core timedCores()[g].
func (p *Problem) timedCores() []int {
	timed := make([]int, 0, len(p.Timed))
	for i, t := range p.Timed {
		if t {
			timed = append(timed, i)
		}
	}
	return timed
}

// Evaluation is the oracle's verdict on one timer vector.
type Evaluation struct {
	// Timers is the full evaluated vector.
	Timers []config.Timer
	// PerCore holds the analytical bound per core at these timers.
	PerCore []analysis.CoreBound
	// Objective is the paper's target: Σ_i WCML_i / Λ_i (average worst-case
	// latency per request, summed over cores).
	Objective float64
	// Violation sums the relative WCML overshoot of violated constraints
	// (0 = feasible).
	Violation float64
}

// Feasible reports whether every requirement is met.
func (e *Evaluation) Feasible() bool { return e.Violation == 0 }

// compiled holds the per-problem invariants of the oracle, hoisted out of
// the per-genome loop: the per-core request counts Λ_i, the resolved MSI
// weight, and the timer-independent part of the WCL bound. With the hoist
// one evaluation is O(n) in the core count instead of O(n²) — WCL_i is
// wclBase + Σ_{θ_j≥0}(θ_j+sw) minus core i's own term, all integer
// arithmetic, so the result is bit-identical to analysis.WCLCoHoRT.
//
// A compiled problem is immutable after compile and safe to share across
// evaluation workers.
type compiled struct {
	p       *Problem
	lambdas []int64
	sw      int64
	wclBase int64
}

func (p *Problem) compile() *compiled {
	n := len(p.Streams)
	c := &compiled{
		p:       p,
		lambdas: make([]int64, n),
		sw:      p.Lat.SlotWidth(),
	}
	for i := range p.Streams {
		c.lambdas[i] = int64(len(p.Streams[i]))
	}
	c.wclBase = c.sw + 2*int64(n-1)*c.sw
	return c
}

// evaluate is the scalar oracle: it runs analysis.IsolationHits per timed
// core. It serves Problem.Evaluate, the reference every faster source is
// held to.
func (c *compiled) evaluate(timers []config.Timer) Evaluation {
	return c.evaluateSrc(append([]config.Timer(nil), timers...), nil, nil)
}

// evaluateSrc assembles one Evaluation from a pluggable isolation-analysis
// source: when curves is non-nil, timed cores' (MHit, MMiss) splits are
// answered by the per-core hit-curve index; otherwise, when memo is non-nil,
// they are read from memo[core][θ]; otherwise analysis.IsolationHits runs
// per core. Everything else — the WCL hoist, the float summation order, the
// constraint handling — is the shared code path, so a memo- or curve-served
// evaluation is bit-identical to a scalar one whenever the source serves
// true IsolationHits results.
//
// evaluateSrc takes ownership of timers: the slice is stored in the
// returned Evaluation without a defensive copy, so callers must never
// mutate it afterwards.
func (c *compiled) evaluateSrc(timers []config.Timer, memo []map[config.Timer][2]int64, curves []*analysis.HitCurve) Evaluation {
	p := c.p
	n := len(p.Streams)
	ev := Evaluation{
		Timers:  timers,
		PerCore: make([]analysis.CoreBound, n),
	}
	// Timer-dependent part of every core's WCL, computed once per vector.
	var timerSum int64
	for _, th := range timers {
		if th >= 0 {
			timerSum += int64(th) + c.sw
		}
	}
	for i := 0; i < n; i++ {
		b := analysis.CoreBound{Core: i, Theta: timers[i]}
		b.WCL = c.wclBase + timerSum
		if timers[i] >= 0 {
			b.WCL -= int64(timers[i]) + c.sw
		}
		lambda := c.lambdas[i]
		if timers[i].Timed() {
			if curves != nil {
				// Curve oracle: O(log k) exact query (with the scalar fallback
				// beyond an incomplete curve's frontier).
				b.MHit, b.MMiss = curves[i].Eval(timers[i])
			} else if memo != nil {
				hm, ok := memo[i][timers[i]]
				if !ok {
					panic(fmt.Sprintf("opt: batched oracle missing core %d θ=%d", i, timers[i]))
				}
				b.MHit, b.MMiss = hm[0]+TestHooks.BatchedOracleHitSkew*int64(timers[i]), hm[1]
			} else {
				// The paper's oracle: in-isolation hit analysis (Fig. 2a).
				b.MHit, b.MMiss = analysis.IsolationHits(p.Streams[i], p.L1, p.Lat, timers[i])
			}
			b.WCMLBound = analysis.WCML(b.MHit, b.MMiss, p.Lat.Hit, b.WCL)
		} else {
			b.MMiss = lambda
			b.WCMLBound = analysis.WCMLAllMiss(lambda, b.WCL)
		}
		ev.PerCore[i] = b
		// Timed cores contribute their per-request bound fully; MSI cores
		// contribute with msiObjectiveWeight.
		if lambda > 0 {
			term := float64(b.WCMLBound) / float64(lambda)
			if p.Timed[i] {
				ev.Objective += term
			} else {
				ev.Objective += msiObjectiveWeight * term
			}
		}
		// C1: enforced for timed cores with a requirement.
		if timers[i].Timed() && p.Gamma != nil && p.Gamma[i] > 0 && b.WCMLBound > p.Gamma[i] {
			ev.Violation += float64(b.WCMLBound-p.Gamma[i]) / float64(p.Gamma[i])
		}
	}
	return ev
}

// Evaluate computes the objective and constraint state of a timer vector.
func (p *Problem) Evaluate(timers []config.Timer) Evaluation {
	return p.compile().evaluate(timers)
}

// fitness folds constraint violations into a single minimized scalar: any
// infeasible point ranks strictly worse than every feasible one.
func fitness(ev *Evaluation) float64 {
	if ev.Violation == 0 {
		return ev.Objective
	}
	return 1e18 * (1 + ev.Violation)
}

// evaluator runs oracle evaluations for one optimization run: a compiled
// problem, a worker count, and a content-addressed memo-cache keyed by the
// timer vector, so a genome that reappears (elites, converged populations,
// revisited neighbors) is never recomputed.
//
// Fresh genomes are answered by exactly one of two exact hit sources, chosen
// here rather than by the caller:
//
//   - The batched memo (the default). Each timed core's stream is compiled
//     once (analysis.Compile: the θ-independent cache replay), the isolation
//     analysis is memoized per (core, θ) for the lifetime of the run, and
//     fresh pairs are computed by the θ-column kernel in units of up to
//     oracleBatchWidth columns. Distinct genomes routinely share genes —
//     elites mutate one coordinate, hill-climb neighborhoods vary one gene
//     at a time — so the per-core memo turns the oracle's cost from
//     (distinct genomes × cores) full cache walks into one kernel column
//     per distinct (core, θ) pair.
//   - Hit curves (with curve set). One analysis.HitCurve per timed core —
//     served from a process-wide content-addressed cache, so repeated runs
//     over the same streams skip construction entirely — answers every
//     (core, θ) pair with an O(log k) query instead of a stream walk,
//     directly in the evaluation assembly. Installation is amortization-
//     gated: eager when the curves are already cached (a fetch, not a build)
//     or when the surrogate needs them, otherwise deferred until the run has
//     brought curveBuildBudget fresh genomes — cold short runs never pay
//     construction and keep serving from the batched memo.
//
// Both sources are exact and the genome cache and all counters behave
// identically, so Results equal the scalar reference (Problem.Evaluate)
// wherever the switch lands.
type evaluator struct {
	p       *Problem
	c       *compiled
	workers int
	curve   bool
	// evalCache is the genome-level memo (keyed by the raw genome key of the
	// gene vector). Every probe and store happens on the coordinator
	// goroutine, so a plain map with explicit counters stands in for
	// parallel.Cache with identical counter semantics — and lets the probe
	// reuse keyBuf without materializing a key string per genome.
	evalCache              map[string]Evaluation
	cacheHits, cacheMisses int64
	// keyBuf is the reusable genome-key scratch buffer; only the coordinator
	// touches it.
	keyBuf []byte
	// surrTimers is surrogateFitness's scratch timer vector, reused across
	// children (tier 2 runs on the coordinator too).
	surrTimers []config.Timer
	// curves[i] is timed core i's hit-curve index (nil for untimed cores).
	// The slice itself is nil until installCurves runs — eagerly from
	// newEvaluator for warm or surrogate runs, or mid-run once the fresh-
	// genome count crosses curveBuildBudget.
	curves []*analysis.HitCurve
	// coreMemo[i][θ] is core i's memoized IsolationHits split (hits, misses).
	// Lookup-only maps (never ranged), populated in deterministic submission
	// order by prefill and the batched saturation sweep. Nil once curves are
	// installed: the index answers every query from then on.
	coreMemo []map[config.Timer][2]int64
	// streams[i] is timed core i's compiled stream (nil for untimed cores),
	// built once per evaluator for the batched memo. Nil once curves are
	// installed.
	streams []*analysis.Compiled
	// scratch is the free list of kernel column state. prefill units and the
	// saturation sweep take one and hand it back, so at most one Scratch
	// (slots × 4 lanes × 8 B: 8 KB for the paper's L1) exists per
	// concurrently running job, and every later unit reuses it. The kernel
	// never reads state it did not write in the same pass, so reuse is
	// invisible in the results. The buffer holds one slot per worker, the
	// most scratches that can exist; they die with the evaluator, at the end
	// of the Optimize or HillClimb call.
	scratch chan *analysis.Scratch
	// computed counts oracle evaluations actually performed (cache misses
	// deduped within each batch).
	computed int
	// progress, when non-nil, receives live memo-hit/miss and batch-lane
	// counts (obs.RunTracker). Bumped only on the serial coordinator
	// goroutine, after parallel sections merge.
	progress *obs.RunHandle
}

// oracleBatchWidth is the most columns one oracle unit carries. The kernel
// runs a unit as 4-lane passes plus a short remainder, so the width no
// longer amortizes a walk; it only sets how a generation's fresh θ spread
// over workers. Results are identical for every width.
const oracleBatchWidth = 16

func newEvaluator(p *Problem, workers int, curve, surrogate bool, progress *obs.RunHandle) *evaluator {
	e := &evaluator{
		p:         p,
		c:         p.compile(),
		workers:   workers,
		curve:     curve,
		evalCache: make(map[string]Evaluation, 256),
		scratch:   make(chan *analysis.Scratch, parallel.DefaultWorkers(workers)),
		progress:  progress,
	}
	if curve && (surrogate || curveBuildBudget <= 0 || curvesWarm(p)) {
		e.installCurves()
		return e
	}
	e.coreMemo = make([]map[config.Timer][2]int64, len(p.Streams))
	for i := range e.coreMemo {
		e.coreMemo[i] = make(map[config.Timer][2]int64, 256)
	}
	timed := p.timedCores()
	compiled := parallel.Map(workers, len(timed), func(g int) *analysis.Compiled {
		return analysis.Compile(p.Streams[timed[g]], p.L1)
	})
	e.streams = make([]*analysis.Compiled, len(p.Streams))
	for g, i := range timed {
		e.streams[i] = compiled[g]
	}
	return e
}

// engineStats reports the genome-cache probe counters in the same shape as
// parallel.Cache.Stats: every probe is a job, split into hits and misses.
func (e *evaluator) engineStats() stats.EngineStats {
	return stats.EngineStats{
		Jobs:        e.cacheHits + e.cacheMisses,
		CacheHits:   e.cacheHits,
		CacheMisses: e.cacheMisses,
	}
}

// takeScratch takes free kernel state off the evaluator's list, making one
// only when every existing Scratch is held by a running job. Hand it back
// with release.
func (e *evaluator) takeScratch() *analysis.Scratch {
	select {
	case sc := <-e.scratch:
		return sc
	default:
		return new(analysis.Scratch)
	}
}

// release returns a Scratch to the free list. No more exist than jobs ever
// ran at once, at most one per worker, so the send never blocks.
func (e *evaluator) release(sc *analysis.Scratch) { e.scratch <- sc }

// oracleUnit is one kernel job: a contiguous chunk of fresh timers for one
// core, at most oracleBatchWidth wide.
type oracleUnit struct {
	core   int
	thetas []config.Timer
}

// prefill runs the isolation analysis for every (core, θ) pair the genomes
// need that the per-core memo does not yet hold. Fresh pairs are collected
// in submission order, chunked per core into units of up to
// oracleBatchWidth columns, fanned across workers, and merged back serially
// — so the memo content is a pure function of the genome sequence,
// identical for every worker count.
func (e *evaluator) prefill(genomes [][]config.Timer) {
	n := len(e.p.Streams)
	fresh := make([][]config.Timer, n)
	seen := make([]map[config.Timer]bool, n)
	for _, timers := range genomes {
		for i, th := range timers {
			if !th.Timed() {
				continue
			}
			if _, ok := e.coreMemo[i][th]; ok {
				continue
			}
			if seen[i] == nil {
				seen[i] = make(map[config.Timer]bool)
			}
			if seen[i][th] {
				continue
			}
			seen[i][th] = true
			fresh[i] = append(fresh[i], th)
		}
	}
	var units []oracleUnit
	for i := 0; i < n; i++ {
		for off := 0; off < len(fresh[i]); off += oracleBatchWidth {
			end := off + oracleBatchWidth
			if end > len(fresh[i]) {
				end = len(fresh[i])
			}
			units = append(units, oracleUnit{core: i, thetas: fresh[i][off:end]})
		}
	}
	type unitResult struct{ hits, misses []int64 }
	results := parallel.Map(e.workers, len(units), func(u int) unitResult {
		r := unitResult{
			hits:   make([]int64, len(units[u].thetas)),
			misses: make([]int64, len(units[u].thetas)),
		}
		sc := e.takeScratch()
		e.streams[units[u].core].IsolationHitsBatch(sc, e.p.Lat, units[u].thetas, r.hits, r.misses)
		e.release(sc)
		return r
	})
	for u := range units {
		for k, th := range units[u].thetas {
			e.coreMemo[units[u].core][th] = [2]int64{results[u].hits[k], results[u].misses[k]}
		}
	}
	e.progress.AddLanes(int64(len(units)))
}

// genomeKey builds the memo-cache key of a timer vector (the evaluator keys
// on the gene vector — the untimed cores are fixed for the run, so genes
// alone address the evaluation). The key is a raw injective byte string —
// the domain prefix followed by each timer as a fixed-width little-endian
// word — rather than a digest: the keys live only in the evaluator's private
// cache, so collision resistance buys nothing and hashing is pure overhead
// on the hot path. Fixed-width words keep distinct vectors distinct, and the
// overall length separates a vector from its prefixes.
func genomeKey(timers []config.Timer) string {
	return string(appendGenomeKey(make([]byte, 0, len(genomeKeyDomain)+4*len(timers)), timers))
}

// appendGenomeKey appends the genome key of timers to buf and returns the
// extended buffer — the allocation-free core of genomeKey, fed by the
// evaluator's reusable scratch buffer.
func appendGenomeKey(buf []byte, timers []config.Timer) []byte {
	buf = append(buf, genomeKeyDomain...)
	for _, th := range timers {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(th))
	}
	return buf
}

const genomeKeyDomain = "opt/eval"

// batch evaluates one chromosome batch and returns the evaluations in
// submission order. Every cache probe happens here, on the calling
// goroutine, before anything is dispatched: repeats — within the batch or
// across generations — are deduped up front, so the hit/miss counters and
// the set of computed jobs are a pure function of the genome sequence,
// identical for every worker count.
func (e *evaluator) batch(genomes [][]config.Timer) []Evaluation {
	out := make([]Evaluation, len(genomes))
	// slot[i] is the job index computing out[i], or -1 when cached.
	slot := make([]int, len(genomes))
	var jobs [][]config.Timer
	var jobKeys []string
	var cached int64
	queued := make(map[string]int, len(genomes))
	for i, g := range genomes {
		// Probe with the scratch buffer; map access through string(buf) does
		// not allocate, so only fresh genomes materialize a key string. The
		// timer vector is materialized lazily too — cache hits skip it.
		e.keyBuf = appendGenomeKey(e.keyBuf[:0], g)
		if v, ok := e.evalCache[string(e.keyBuf)]; ok {
			out[i], slot[i] = v, -1
			e.cacheHits++
			cached++
			continue
		}
		e.cacheMisses++
		if j, ok := queued[string(e.keyBuf)]; ok {
			slot[i] = j
			continue
		}
		key := string(e.keyBuf)
		queued[key] = len(jobs)
		slot[i] = len(jobs)
		jobs = append(jobs, e.p.Timers(g))
		jobKeys = append(jobKeys, key)
	}
	// Deferred curve installation: once the run has brought enough fresh
	// genomes to amortize construction, build the indexes and serve every
	// later batch from them. Exact either way, so the switch point is
	// invisible in the results.
	if e.curve && e.curves == nil && e.cacheMisses >= curveBuildBudget {
		e.installCurves()
	}
	// Without curves, resolve every fresh (core, θ) pair into the per-core
	// memo first; either way the assembly then runs serially — pure
	// integer/float arithmetic in the scalar path's per-core order, so the
	// results are bit-identical to Problem.Evaluate.
	if e.curves == nil {
		e.prefill(jobs)
	}
	results := make([]Evaluation, len(jobs))
	for j := range jobs {
		results[j] = e.c.evaluateSrc(jobs[j], e.coreMemo, e.curves)
	}
	for j := range jobKeys {
		e.evalCache[jobKeys[j]] = results[j]
	}
	e.computed += len(jobs)
	e.progress.AddMemoHits(cached)
	e.progress.AddMemoMisses(int64(len(jobs)))
	for i := range genomes {
		if slot[i] >= 0 {
			out[i] = results[slot[i]]
		}
	}
	return out
}

// thetaIS computes the per-gene saturation timers θ_is (§V) on the
// evaluator's hit source, bit-identical to analysis.SaturationTimer per
// core. Installed curves answer the shared saturation sweep in O(log k) per
// probe. Otherwise each timed core's sweep runs on its compiled stream,
// fanned across workers, and every (θ → hits, misses) sample the sweep
// produced seeds the per-core memo — so the boundary individuals of the
// initial population (all-ones, all-θ_is) evaluate without re-running the
// analysis.
func (e *evaluator) thetaIS() []config.Timer {
	timed := e.p.timedCores()
	out := make([]config.Timer, len(timed))
	if e.curves != nil {
		for g, i := range timed {
			out[g], _ = e.curves[i].SaturationTimer()
		}
		return out
	}
	type satResult struct {
		theta   config.Timer
		samples []analysis.TimerSample
	}
	results := parallel.Map(e.workers, len(timed), func(g int) satResult {
		sc := e.takeScratch()
		th, _, samples := e.streams[timed[g]].SaturationTimer(sc, e.p.Lat)
		e.release(sc)
		return satResult{theta: th, samples: samples}
	})
	for g, i := range timed {
		out[g] = results[g].theta
		for _, smp := range results[g].samples {
			e.coreMemo[i][smp.Theta] = [2]int64{smp.Hits, smp.Misses}
		}
	}
	return out
}

// TestHooks injects seeded faults for the batched-oracle differential suite
// (and nothing else). All hooks default to off; production code must never
// set them.
var TestHooks struct {
	// BatchedOracleHitSkew adds skew·θ guaranteed hits to every memo-served
	// isolation result. The θ-proportional shape mimics a real batching bug
	// (a window-test off-by-one is θ-dependent) and perturbs candidate
	// *ranking*, not just absolute fitness, so the fault surfaces all the
	// way up to rendered tables — a uniform shift would cancel out of the
	// argmax. Only the batched oracle path reads it — the scalar oracle is
	// untouched — so the equivalence suite can prove its batched ≡ scalar
	// comparison fails closed: with a nonzero skew it must report a
	// mismatch.
	BatchedOracleHitSkew int64
}

// GAConfig tunes the genetic algorithm. DefaultGA mirrors a conventional
// small-population setup.
type GAConfig struct {
	// Pop is the population size.
	Pop int
	// Generations is the number of evolution rounds.
	Generations int
	// Elite is the number of best individuals copied unchanged.
	Elite int
	// TournamentK is the tournament selection size.
	TournamentK int
	// CrossoverProb is the per-offspring probability of uniform crossover.
	CrossoverProb float64
	// MutationProb is the per-gene mutation probability.
	MutationProb float64
	// Seed makes runs deterministic.
	Seed uint64
	// Workers caps the evaluation worker pool: 1 forces the serial path,
	// anything below 1 selects runtime.NumCPU(). The Result is byte-identical
	// for every value.
	Workers int
	// OracleCurve allows the hit-curve oracle (tier 1): one analysis.HitCurve
	// per timed core answers every (core, θ) query with a binary search
	// instead of a stream walk, and θ_is is read off the curve through the
	// shared saturation sweep. The evaluator installs the curves when they
	// pay off (see curveBuildBudget) and serves from the batched per-core
	// memo until then. The Result is byte-identical either way; only the
	// cost changes.
	OracleCurve bool
	// Surrogate enables the tier-2 surrogate prefilter: each generation's
	// children are scored by a cheap curve-bound fitness first, and only
	// those within SurrogateMargin of the elite frontier are evaluated
	// exactly. Elites and the reported best are always exact; pruned
	// children keep their surrogate fitness for selection only. Requires
	// OracleCurve. Unlike the exact oracles this changes Result counters
	// (fewer Evaluations), so it participates in result cache keys.
	Surrogate bool
	// SurrogateMargin is the relative margin around the elite frontier
	// within which children are still evaluated exactly: a child is pruned
	// only when its surrogate fitness exceeds frontier·(1+margin). 0 selects
	// DefaultSurrogateMargin; negative values collapse the margin to 0
	// (prune everything above the frontier).
	SurrogateMargin float64
	// Metrics, when non-nil, receives the optimizer's end-of-run counters
	// (runs, evaluations, memo-engine totals, best fitness). Purely
	// observational: it never affects the Result. The experiment harness
	// strips it before memoized Optimize calls so cached and fresh results
	// publish identically.
	Metrics *obs.Registry
	// Recorder, when non-nil, receives one span per GA generation
	// (timestamped by generation index under obs.PidOpt). Purely
	// observational, like Metrics.
	Recorder *obs.Recorder
	// Progress, when non-nil, receives live pull-sampled progress: the
	// planned and completed generation counts, memo-cache hits/misses, and
	// batched-oracle lane completions (obs.RunTracker). Purely observational,
	// like Metrics: samples are scheduling-dependent and never affect the
	// Result. Unlike Metrics and Recorder it survives the experiment
	// harness's memoization strip — live progress is allowed to depend on
	// memo state, canonical output is not.
	Progress *obs.RunHandle
}

// DefaultGA returns the parameters used by the experiment harness.
func DefaultGA(seed uint64) GAConfig {
	return GAConfig{
		Pop:           32,
		Generations:   40,
		Elite:         2,
		TournamentK:   3,
		CrossoverProb: 0.9,
		MutationProb:  0.25,
		Seed:          seed,
	}
}

// Key writes every result-affecting field into a cache or config key.
// Workers and OracleCurve are result-neutral and stay out of it, as do the
// observability hooks. The tier-2 surrogate is not neutral — it changes
// which children are evaluated exactly and can move the optimum — so it
// joins the key, but only when enabled: every surrogate-off key (and the
// fingerprints built on them) stays byte-stable.
func (g GAConfig) Key(k *parallel.Key) *parallel.Key {
	k.Int(g.Pop).Int(g.Generations).Int(g.Elite).Int(g.TournamentK)
	k.Float64(g.CrossoverProb).Float64(g.MutationProb).Uint64(g.Seed)
	if g.Surrogate {
		k.Bool(true).Float64(g.SurrogateMargin)
	}
	return k
}

// Result is the optimizer's output.
type Result struct {
	// Timers is the best full timer vector found.
	Timers []config.Timer
	// Eval is the evaluation of Timers.
	Eval Evaluation
	// ThetaIS is the per-gene search upper bound θ_is (core order over
	// timed cores).
	ThetaIS []config.Timer
	// BestHistory records the best fitness per generation.
	BestHistory []float64
	// Evaluations counts the oracle evaluations actually computed; genomes
	// repeated across the run are served by the memo-cache and counted once.
	Evaluations int
	// Engine reports the memo-cache counters (requests, hits, misses). The
	// coordinator probes the cache serially, so these are deterministic and
	// identical for every Workers value. Note CacheMisses can exceed
	// Evaluations: a genome repeated inside one batch misses twice but is
	// computed once.
	Engine stats.EngineStats
}

// Optimize runs the GA and returns the best timer vector found. With no
// timed cores it returns the all-MSI vector immediately.
//
// Chromosome generation (all RNG use) happens on the calling goroutine in
// the same order as a serial run; only the deduped oracle evaluations are
// dispatched to workers. Optimize therefore returns a byte-identical Result
// for every GAConfig.Workers value.
//
//cohort:hotpath determinism
func Optimize(p *Problem, gc GAConfig) (*Result, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	// Errors name only the offending field: the config also carries
	// pointers (Progress, Metrics) whose addresses change run to run.
	if gc.Pop < 2 {
		return nil, fmt.Errorf("opt: degenerate GA config: Pop %d, need ≥ 2", gc.Pop)
	}
	if gc.Generations < 1 {
		return nil, fmt.Errorf("opt: degenerate GA config: Generations %d, need ≥ 1", gc.Generations)
	}
	if gc.Elite >= gc.Pop {
		return nil, fmt.Errorf("opt: elite %d must be below population %d", gc.Elite, gc.Pop)
	}
	if gc.Surrogate && !gc.OracleCurve {
		return nil, fmt.Errorf("opt: surrogate prefilter requires the curve oracle")
	}
	nGenes := len(p.timedCores())
	res := &Result{}
	if nGenes == 0 {
		timers := p.Timers(nil)
		ev := p.Evaluate(timers)
		res.Timers = timers
		res.Eval = ev
		res.Evaluations = 1
		publishMetrics(gc.Metrics, res)
		return res, nil
	}

	oracle := newEvaluator(p, gc.Workers, gc.OracleCurve, gc.Surrogate, gc.Progress)
	gc.Progress.SetGenerations(int64(gc.Generations))

	// Per-gene upper bounds: θ_is from the saturation sweep (§V), on
	// whichever hit source the evaluator installed.
	res.ThetaIS = oracle.thetaIS()

	rng := trace.NewRNG(gc.Seed ^ 0x6f7074) // "opt"
	randGene := func(g int) config.Timer {
		hi := int64(res.ThetaIS[g])
		// Log-uniform draw over [1, θ_is] so small timers are explored.
		u := rng.Float64()
		v := math.Exp(u * math.Log(float64(hi)))
		th := config.Timer(v)
		if th < 1 {
			th = 1
		}
		if th > res.ThetaIS[g] {
			th = res.ThetaIS[g]
		}
		return th
	}

	type indiv struct {
		genes []config.Timer
		ev    Evaluation
		fit   float64
		// exact marks fitness values computed by the exact oracle; surrogate-
		// pruned children carry their tier-2 bound instead and may influence
		// selection, but never the elites, the best, or the Result.
		exact bool
	}
	evalAll := func(genomes [][]config.Timer) []indiv {
		evs := oracle.batch(genomes)
		out := make([]indiv, len(genomes))
		for i := range genomes {
			out[i] = indiv{genes: genomes[i], ev: evs[i], fit: fitness(&evs[i]), exact: true}
		}
		return out
	}
	margin := gc.SurrogateMargin
	switch {
	case margin == 0:
		margin = DefaultSurrogateMargin
	case margin < 0:
		margin = 0
	}

	genomes := make([][]config.Timer, gc.Pop)
	for i := range genomes {
		genes := make([]config.Timer, nGenes)
		for g := range genes {
			switch {
			case i == 0:
				genes[g] = 1 // minimal timers: lowest interference
			case i == 1:
				genes[g] = res.ThetaIS[g] // saturated hits
			default:
				genes[g] = randGene(g)
			}
		}
		genomes[i] = genes
	}
	pop := evalAll(genomes)

	best := pop[0]
	for i := range pop {
		if pop[i].exact && pop[i].fit < best.fit {
			best = pop[i]
		}
	}

	tournament := func() indiv {
		w := pop[rng.Intn(len(pop))]
		for k := 1; k < gc.TournamentK; k++ {
			c := pop[rng.Intn(len(pop))]
			if c.fit < w.fit {
				w = c
			}
		}
		return w
	}

	for gen := 0; gen < gc.Generations; gen++ {
		next := make([]indiv, 0, gc.Pop)
		// Elitism: keep the best individuals (selection sort over a copy).
		order := make([]int, len(pop))
		for i := range order {
			order[i] = i
		}
		for e := 0; e < gc.Elite; e++ {
			bi := e
			for j := e + 1; j < len(order); j++ {
				if pop[order[j]].fit < pop[order[bi]].fit {
					bi = j
				}
			}
			order[e], order[bi] = order[bi], order[e]
			next = append(next, pop[order[e]])
		}
		// Selection and variation draw only from the previous generation's
		// pop and the RNG, never from an evaluation of this generation, so
		// all children can be bred first and evaluated as one batch.
		children := make([][]config.Timer, 0, gc.Pop-len(next))
		for len(next)+len(children) < gc.Pop {
			a, b := tournament(), tournament()
			child := make([]config.Timer, nGenes)
			if rng.Float64() < gc.CrossoverProb {
				for g := range child {
					if rng.Float64() < 0.5 {
						child[g] = a.genes[g]
					} else {
						child[g] = b.genes[g]
					}
				}
			} else {
				copy(child, a.genes)
			}
			for g := range child {
				if rng.Float64() < gc.MutationProb {
					// Geometric step around the current value, or a fresh
					// log-uniform draw 20% of the time.
					if rng.Float64() < 0.2 {
						child[g] = randGene(g)
					} else {
						factor := 0.5 + rng.Float64()*1.5
						v := config.Timer(float64(child[g]) * factor)
						if v < 1 {
							v = 1
						}
						if v > res.ThetaIS[g] {
							v = res.ThetaIS[g]
						}
						child[g] = v
					}
				}
			}
			children = append(children, child)
		}
		if gc.Surrogate && len(children) > 0 {
			// Tier 2: score every child with the curve-bound surrogate and
			// evaluate exactly only those within the margin of the elite
			// frontier (the worst kept elite; the global best when Elite is
			// 0). The surrogate never exceeds the exact fitness, so a pruned
			// child provably cannot reach the frontier — let alone improve
			// the best — and elites can never be pruned individuals: their
			// fitness exceeds a past frontier, while elites sit at or below
			// every frontier since.
			frontier := best.fit
			if gc.Elite > 0 {
				frontier = next[len(next)-1].fit
			}
			threshold := frontier * (1 + margin)
			surrFits := make([]float64, len(children))
			keep := make([]int, 0, len(children))
			for ci, child := range children {
				surrFits[ci] = oracle.surrogateFitness(child)
				if surrFits[ci] <= threshold {
					keep = append(keep, ci)
				}
			}
			exactGenomes := make([][]config.Timer, len(keep))
			for k, ci := range keep {
				exactGenomes[k] = children[ci]
			}
			evaluated := evalAll(exactGenomes)
			childIndivs := make([]indiv, len(children))
			for ci := range children {
				childIndivs[ci] = indiv{genes: children[ci], fit: surrFits[ci]}
			}
			for k, ci := range keep {
				childIndivs[ci] = evaluated[k]
			}
			next = append(next, childIndivs...)
		} else {
			next = append(next, evalAll(children)...)
		}
		pop = next
		for i := range pop {
			if pop[i].exact && pop[i].fit < best.fit {
				best = pop[i]
			}
		}
		res.BestHistory = append(res.BestHistory, best.fit)
		gc.Progress.SetGeneration(int64(gen + 1))
		if gc.Recorder != nil {
			gc.Recorder.Complete(obs.PidOpt, 0, fmt.Sprintf("generation %d", gen), "ga",
				int64(gen), 1, map[string]string{
					"best_fitness": strconv.FormatFloat(best.fit, 'g', -1, 64),
					"children":     strconv.Itoa(len(pop) - gc.Elite),
				})
		}
	}

	res.Timers = p.Timers(best.genes)
	res.Eval = best.ev
	res.Evaluations = oracle.computed
	res.Engine = oracle.engineStats()
	publishMetrics(gc.Metrics, res)
	return res, nil
}

// publishMetrics folds one Optimize run's counters into a registry. The
// counters accumulate across runs sharing the registry; the gauges describe
// the most recent run. Callers invoke Optimize in a deterministic order, so
// the published totals are deterministic too. No-op on a nil registry.
func publishMetrics(reg *obs.Registry, res *Result) {
	if reg == nil {
		return
	}
	// Publish under the registry's Sync lock so a concurrent live scrape
	// (the debug server's /metrics) sees either none or all of this run's
	// counters.
	reg.Sync(func() {
		reg.Counter("opt_runs_total").Inc()
		reg.Counter("opt_evaluations_total").Add(int64(res.Evaluations))
		reg.Counter("opt_engine_jobs_total").Add(res.Engine.Jobs)
		reg.Counter("opt_engine_cache_hits_total").Add(res.Engine.CacheHits)
		reg.Counter("opt_engine_cache_misses_total").Add(res.Engine.CacheMisses)
		reg.Gauge("opt_generations").Set(int64(len(res.BestHistory)))
		if n := len(res.BestHistory); n > 0 {
			reg.FloatGauge("opt_best_fitness").Set(res.BestHistory[n-1])
		}
	})
}
