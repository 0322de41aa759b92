// Hit-curve index: the complete step function θ → (hits, misses) of the
// in-isolation cache analysis, precomputed once per (stream, geometry,
// latency, WCL) so that every subsequent query for any θ is an O(log k)
// binary search over k segments instead of a full stream walk.
//
// Construction is an exact segment sweep, not a breakpoint sort. A single
// replay at a fixed θ yields more than its own split: every branch the
// replay takes stays identical for any θ' ≥ θ up to the first access whose
// classification can change, and the smallest such θ' is directly readable
// off the replay — it is the minimum "flip age" now − fetchedAt over the
// window misses whose kind condition holds (a read, or a write finding a
// Modified copy). No per-access monotonicity is assumed — none holds: the
// isolation clock advances by lat.Hit on hits and by wcl on misses, so
// enlarging θ can turn a later access from hit to miss (DESIGN.md §17 gives
// a concrete counterexample). What does hold is regime constancy: for every
// integer θ' in [θ, nextBreak−1] the entire replay — every lookup, every
// window test, every victim choice — is access-for-access identical to the
// replay at θ, because cache content and recency evolve θ-independently and
// the classification tests decide the same way on both sides. The sweep
// therefore replays at θ = 1, jumps to nextBreak, and repeats until no
// window miss can flip within the timer domain; adjacent segments with
// equal splits are merged.
//
// Each replay is one 1-lane pass of the θ-column kernel over the stream's
// compiled replay (batch.go), which reads nextBreak off the same pass. After
// construction every segment-start θ is re-evaluated through GuaranteedHits
// and any mismatch panics: the certificate comes from the cache.Cache walk,
// not from code that shares the curve's compile step. The seeded-fault hook
// TestHooks.CurveBreakpointSkew shifts segment boundaries *after* that
// verification, so downstream differential suites must catch the resulting
// wrong answers themselves (fail-closed proof for the query path).
package analysis

import (
	"fmt"

	"cohort/internal/config"
	"cohort/internal/trace"
)

// TestHooks holds seeded-fault injection points for the analysis package.
// All fields are zero in production; tests set them to prove the
// differential harnesses fail closed.
var TestHooks struct {
	// CurveBreakpointSkew shifts every interior segment boundary of newly
	// built hit curves by the given amount, after construction verification
	// has passed. Queries landing in a skewed boundary zone return the
	// neighboring segment's split — silently wrong, exactly what the
	// equivalence suites must detect.
	CurveBreakpointSkew config.Timer
	// CompileDropResident makes Compile record the stream's first resident
	// read as non-resident, so that access always misses in the θ-column
	// kernel — the shape of a tag-replay bug. The batched differentials
	// must report it, and hit-curve verification must refuse the curve.
	CompileDropResident bool
}

// curveMaxSweeps caps the number of replays one curve construction may
// perform. Streams whose step function has more regimes than this yield an
// incomplete curve: queries below the sweep frontier are served exactly from
// the index, queries at or above it fall back to the scalar analysis. The
// cap is a variable so tests can force the incomplete path; the timer domain
// bounds the true regime count at config.TimerMax.
var curveMaxSweeps = 4096

// HitCurve is the precomputed step function θ → (hits, misses) of
// GuaranteedHits for one stream under a fixed geometry, latency set and
// per-miss cost. Build one with NewHitCurve; the zero value is not usable.
// A curve is immutable after construction and safe for concurrent readers.
type HitCurve struct {
	// Segment k covers θ ∈ [starts[k], starts[k+1]−1] (the last segment
	// extends to the sweep frontier, or config.TimerMax when complete).
	// starts[0] is always 1; the slices are empty only for a curve whose
	// stream the kernel cannot answer exactly (tailStart 1).
	starts []config.Timer
	hits   []int64
	misses []int64

	// complete reports whether the sweep covered the full timer domain;
	// when false, tailStart is the first θ the index cannot answer.
	complete  bool
	tailStart config.Timer

	// Inputs retained for the scalar fallback of Eval.
	s    trace.Stream
	geom config.CacheGeometry
	lat  config.Latencies
	wcl  int64
}

// NewHitCurve builds the complete (or capped) hit curve for one stream: the
// exact step function θ → GuaranteedHits(s, geom, lat, θ, wcl) over the
// timed domain θ ∈ [1, config.TimerMax]. Every sweep is one 1-lane kernel
// pass over the compiled stream; construction is verified against
// GuaranteedHits before the curve is returned. A stream the kernel cannot
// answer exactly (see Compiled.exact) yields an empty, incomplete curve
// whose every query falls back to GuaranteedHits.
func NewHitCurve(s trace.Stream, geom config.CacheGeometry, lat config.Latencies, wcl int64) *HitCurve {
	if wcl <= 0 {
		// Same guard, same message as the scalar kernel.
		panic(fmt.Sprintf("analysis: non-positive WCL %d", wcl))
	}
	hc := &HitCurve{complete: true, s: s, geom: geom, lat: lat, wcl: wcl}
	cs := Compile(s, geom)
	theta := config.Timer(1)
	if !cs.exact(lat.Hit, wcl) {
		hc.complete = false
		hc.tailStart = theta
		return hc
	}
	st := make([]int64, cs.slots)
	lambda := int64(len(s))
	for sweep := 0; ; sweep++ {
		if sweep >= curveMaxSweeps {
			hc.complete = false
			hc.tailStart = theta
			break
		}
		h, next := cs.run1(st, int64(theta), lat.Hit, wcl)
		if k := len(hc.starts); k == 0 || hc.hits[k-1] != h {
			hc.starts = append(hc.starts, theta)
			hc.hits = append(hc.hits, h)
			hc.misses = append(hc.misses, lambda-h)
		}
		if next > int64(config.TimerMax) {
			break
		}
		theta = config.Timer(next)
	}
	hc.verify()
	if sk := TestHooks.CurveBreakpointSkew; sk != 0 {
		// Seeded fault: shift interior boundaries after verification so the
		// construction check passes but boundary-zone queries are wrong.
		for i := 1; i < len(hc.starts); i++ {
			hc.starts[i] += sk
		}
	}
	return hc
}

// NewIsolationHitCurve builds the curve for IsolationHits semantics: misses
// priced at one uncontended slot (SW), the form the optimizer's oracle
// queries.
func NewIsolationHitCurve(s trace.Stream, geom config.CacheGeometry, lat config.Latencies) *HitCurve {
	return NewHitCurve(s, geom, lat, lat.SlotWidth())
}

// verify re-evaluates every segment start through GuaranteedHits — the
// cache.Cache walk, which shares no code with Compile or the kernel that
// built the curve — and panics on any mismatch. Mid-segment values are
// covered by the regime-constancy argument (DESIGN.md §17); the segment
// starts are exactly the points where construction could have gone wrong.
func (c *HitCurve) verify() {
	for i, th := range c.starts {
		h, m := GuaranteedHits(c.s, c.geom, c.lat, th, c.wcl)
		if h != c.hits[i] || m != c.misses[i] {
			panic(fmt.Sprintf("analysis: hit-curve verification failed at θ=%d: curve (%d,%d) vs GuaranteedHits (%d,%d)",
				th, c.hits[i], c.misses[i], h, m))
		}
	}
}

// Complete reports whether the curve covers the full timer domain.
func (c *HitCurve) Complete() bool { return c.complete }

// Segments returns the number of distinct regimes the curve indexes.
func (c *HitCurve) Segments() int { return len(c.starts) }

// TailStart returns the first θ an incomplete curve cannot answer (0 when
// the curve is complete).
func (c *HitCurve) TailStart() config.Timer {
	if c.complete {
		return 0
	}
	return c.tailStart
}

// Lookup answers the guaranteed hit/miss split for θ from the index alone.
// ok is false when the curve is incomplete and θ lies at or beyond the
// sweep frontier (or outside the timer domain); callers then fall back to
// the scalar analysis (Eval does so automatically). The query is a binary
// search over the segment starts and performs no allocation.
//
//cohort:hotpath
func (c *HitCurve) Lookup(theta config.Timer) (hits, misses int64, ok bool) {
	if !theta.Timed() {
		return 0, int64(len(c.s)), true
	}
	if theta > config.TimerMax || (!c.complete && theta >= c.tailStart) {
		return 0, 0, false
	}
	// Largest segment index with starts[i] ≤ θ; starts[0] = 1 ≤ θ always.
	lo, hi := 0, len(c.starts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if c.starts[mid] <= theta {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	i := lo - 1
	return c.hits[i], c.misses[i], true
}

// Eval answers the split for any θ: from the index when covered, otherwise
// by the exact scalar analysis over the retained inputs.
func (c *HitCurve) Eval(theta config.Timer) (hits, misses int64) {
	if h, m, ok := c.Lookup(theta); ok {
		return h, m
	}
	return GuaranteedHits(c.s, c.geom, c.lat, theta, c.wcl)
}

// SaturationTimer computes θ_is and the saturation hit count from the
// curve, replicating the package-level SaturationTimer's doubling-grid +
// binary-search decision sequence exactly — every probe is answered by Eval
// instead of a stream walk, so the result is bit-identical.
func (c *HitCurve) SaturationTimer() (config.Timer, int64) {
	return saturationSweep(func(th config.Timer) int64 {
		h, _ := c.Eval(th)
		return h
	})
}
