// Tier-1 curve oracle glue: per-core analysis.HitCurve construction with a
// process-wide content-addressed cache and the amortization gate that
// decides when to install it (the evaluation assembly and the θ_is sweep
// read the installed curves directly — see evaluateSrc and thetaIS). The
// curves are exact — every value they serve equals an
// analysis.IsolationHits result — so this file changes only the oracle's
// cost, never its answers; the equivalence suites in curve_equiv_test.go
// hold the curve oracle to bit-identity with Problem.Evaluate and with the
// batched memo.
package opt

import (
	"sync"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/parallel"
	"cohort/internal/trace"
)

// curveMemo caches hit curves process-wide, keyed by everything that defines
// one: stream content, geometry, and the latencies the isolation analysis
// reads. Optimization runs — and above them the experiment harness and the
// GA benchmark — repeatedly analyze the same streams, so construction is
// paid once per distinct (stream, platform) pair per process. Purity makes a
// cache hit observationally identical to rebuilding.
var curveMemo = parallel.NewCache[*analysis.HitCurve]()

// ResetCurveCache drops every cached hit curve and stream fingerprint.
// Equivalence tests call it to compare cold-cache runs.
func ResetCurveCache() {
	curveMemo.Reset()
	streamFPMu.Lock()
	streamFPCache = map[streamID]string{}
	streamFPMu.Unlock()
}

// streamID identifies a stream by slice identity (backing array head plus
// length). Streams are immutable after generation, so identity implies
// content equality; two streams with equal content but different backing
// arrays simply fingerprint twice — the digests agree, so the curve cache
// still unifies them.
type streamID struct {
	head *trace.Access
	n    int
}

var (
	streamFPMu    sync.Mutex
	streamFPCache = map[streamID]string{}
)

// streamFingerprint content-addresses a stream, digesting every access once
// per distinct slice per process (the digest is memoized by slice identity —
// the same trick as the experiment harness's per-*Trace fingerprint cache).
// Without the memo, re-hashing the full stream per Optimize call would
// rival the curve queries themselves on short runs.
func streamFingerprint(s trace.Stream) string {
	var id streamID
	if len(s) > 0 {
		id = streamID{head: &s[0], n: len(s)}
		streamFPMu.Lock()
		fp, ok := streamFPCache[id]
		streamFPMu.Unlock()
		if ok {
			return fp
		}
	}
	k := parallel.NewKey("opt/stream")
	k.Int(len(s))
	for i := range s {
		a := &s[i]
		k.Uint64(a.Addr).Int64(int64(a.Kind)).Int64(a.Gap)
	}
	fp := k.Sum()
	if len(s) > 0 {
		streamFPMu.Lock()
		streamFPCache[id] = fp
		streamFPMu.Unlock()
	}
	return fp
}

// curveKey content-addresses a hit curve: the geometry, the two latency
// components the analysis consumes (hit cost and per-miss slot width), and
// the stream fingerprint.
func curveKey(s trace.Stream, geom config.CacheGeometry, lat config.Latencies) string {
	k := parallel.NewKey("opt/hitcurve")
	k.Int(geom.SizeBytes).Int(geom.LineBytes).Int(geom.Ways)
	k.Int64(lat.Hit).Int64(lat.SlotWidth())
	k.Str(streamFingerprint(s))
	return k.Sum()
}

// curveForStream returns the (possibly cached) hit curve for one core's
// stream. Curves built under an active seeded fault are never cached: the
// skew would otherwise leak into unrelated runs and mask — or fabricate —
// divergences the fault-injection tests reason about.
func curveForStream(s trace.Stream, geom config.CacheGeometry, lat config.Latencies) *analysis.HitCurve {
	if analysis.TestHooks.CurveBreakpointSkew != 0 {
		return analysis.NewIsolationHitCurve(s, geom, lat)
	}
	return curveMemo.GetOrCompute(curveKey(s, geom, lat), func() *analysis.HitCurve {
		return analysis.NewIsolationHitCurve(s, geom, lat)
	})
}

// curveBuildBudget is the number of genome-cache misses after which a
// curve-mode evaluator stops serving queries from the batched per-core memo
// and builds the per-core hit-curve indexes. Construction costs one replay
// per regime plus the batched verification walk — roughly twice the regime
// count in stream walks — and at paper scale the regime count rivals or
// exceeds a default GA's entire fresh-genome count (a pop 20 × 16 run
// dedups to ~250-340 fresh genomes while full-scale streams carry hundreds
// of regimes), so building mid-way through a one-shot default run is a
// guaranteed net loss: measured on fig5a, every budget that fires costs
// ~0.5 s of construction against queries the batched memo serves in less.
// The budget therefore sits above every one-shot run we ship; only genuinely
// large searches — cohort-opt at exploratory pop/gens, where thousands of
// fresh genomes follow the trigger — build cold. The big wins need no
// trigger at all: warm runs (curves already in the process-wide cache —
// repeated searches over the same streams, every benchmark iteration after
// the first) and surrogate runs (tier 2 reads the curves per child)
// install eagerly at construction time. The switch point cannot change
// results — every source is exact — so tests pin one path by setting the
// budget to 0 (always eager) or a huge value (never build).
var curveBuildBudget int64 = 2048

// curvesWarm reports whether every timed core's hit curve is already in the
// process-wide cache, i.e. installing them is a fetch, not a build. An
// active breakpoint-skew fault forces eager installation so the fail-closed
// suites exercise the skewed query path regardless of run size.
func curvesWarm(p *Problem) bool {
	if analysis.TestHooks.CurveBreakpointSkew != 0 {
		return true
	}
	for i, t := range p.Timed {
		if !t {
			continue
		}
		if _, ok := curveMemo.Get(curveKey(p.Streams[i], p.L1, p.Lat)); !ok {
			return false
		}
	}
	return true
}

// installCurves builds (or fetches) one hit curve per timed core, fanned
// across the evaluator's workers, and installs them: from here on every
// (core, θ) query is answered by the index. Each curve counts as one
// completed oracle lane for live progress.
func (e *evaluator) installCurves() {
	p := e.p
	timed := p.timedCores()
	curves := parallel.Map(e.workers, len(timed), func(g int) *analysis.HitCurve {
		return curveForStream(p.Streams[timed[g]], p.L1, p.Lat)
	})
	e.curves = make([]*analysis.HitCurve, len(p.Streams))
	for g := range timed {
		e.curves[timed[g]] = curves[g]
	}
	e.coreMemo = nil
	e.streams = nil
	e.progress.AddLanes(int64(len(timed)))
}
