// Batched in-isolation cache analysis over a compiled stream. The
// requirement-aware optimizer evaluates many timers against the *same*
// workload streams, and GuaranteedHits re-drives a full cache model once per
// timer. Most of that work does not depend on θ at all: every access leaves
// its line resident and most-recently used — a guaranteed hit touches it, a
// miss re-fills it in place or fills a victim — and victim choice reads only
// validity and recency, never the window. Cache content and recency are
// therefore a function of the address sequence alone.
//
// Compile runs that θ-independent part once: a tag-only replay under
// cache.Cache's exact rules (way-order probe, invalid-first victim, else
// strict LRU with the lowest way winning ties, every access touches) that
// records, per access, the slot (set*ways+way) the line occupies for this
// residency and whether the line was already resident. What remains per θ is
// a clock and one word of state per slot — the window deadline fetchedAt+θ
// and the Modified bit of the slot's last fill:
//
//   - a non-resident access misses;
//   - a resident access hits iff now ≤ fetchedAt+θ and (read or Modified);
//   - a miss sets fetchedAt = now (after the miss cost) and Modified = write.
//
// The θ-column kernel evaluates that recurrence without branches, four
// columns interleaved per stream pass (run4) or one (run1, which also
// extracts the hit curve's next breakpoint). Column c's result is
// bit-identical to GuaranteedHits(s, geom, lat, thetas[c], wcl); the
// differential suite (batch_test.go) and FuzzBatchVsScalar hold it to that.
// GuaranteedHits stays the independent reference: it shares no code with
// Compile or the kernel.
package analysis

import (
	"fmt"
	"math"
	"math/bits"

	"cohort/internal/config"
	"cohort/internal/trace"
)

// Packed op layout: one uint64 per access.
const (
	opResident  = 1 << 0 // the line was resident before the access
	opWrite     = 1 << 1 // the access is a store
	opSlotShift = 2      // bits 2..31: slot index set*ways+way
	opSlotMask  = 1<<30 - 1
	opGapShift  = 32 // bits 32..63: the access's gap
	maxOpGap    = 1<<32 - 1
)

// kernelClockLimit bounds every isolation clock the kernel may reach. Below
// it, doubling a clock (the Modified bit rides in the low bit of the packed
// deadline) and subtracting two packed deadlines cannot overflow, so the
// kernel's comparisons are exact.
const kernelClockLimit = 1 << 60

// Compiled is one stream's θ-independent cache replay, built by Compile. It
// is immutable and safe for concurrent use; per-call column state lives in
// a Scratch.
type Compiled struct {
	s     trace.Stream
	geom  config.CacheGeometry
	slots int
	// ops holds one packed op per access. It is nil when the stream does
	// not fit the packed form — a gap outside [0, 2³²), a gap sum reaching
	// kernelClockLimit, or more than 2³⁰ slots — and every query on such a
	// stream runs the reference walk instead.
	ops []uint64
	// gapSum is Σ gap over the stream, the θ-independent part of the clock.
	gapSum int64
}

// Scratch is reusable column state for the kernel: one word per cache slot
// per lane. The zero value is ready to use; a Scratch grows to the largest
// geometry it has served. It is not safe for concurrent use — give each
// worker its own. The kernel never reads a slot before writing it in the
// same pass (a resident access implies an earlier fill of its slot), so
// state left by an earlier call is never observed.
type Scratch struct {
	st   []int64
	cols []int
}

func (sc *Scratch) state(n int) []int64 {
	if len(sc.st) < n {
		sc.st = make([]int64, n)
	}
	return sc.st[:n]
}

// Compile replays the stream's tags once through the cache geometry and
// records the per-access slot and residency that every θ shares. The
// geometry must satisfy cache.New's constraints (power-of-two line size and
// set count); violations panic, as they do there.
func Compile(s trace.Stream, geom config.CacheGeometry) *Compiled {
	if geom.SizeBytes <= 0 || geom.LineBytes <= 0 || geom.Ways <= 0 {
		panic("analysis: non-positive cache geometry")
	}
	if bits.OnesCount(uint(geom.LineBytes)) != 1 {
		panic(fmt.Sprintf("analysis: line size %d not a power of two", geom.LineBytes))
	}
	nSets := geom.SizeBytes / (geom.LineBytes * geom.Ways)
	if nSets <= 0 || bits.OnesCount(uint(nSets)) != 1 {
		panic(fmt.Sprintf("analysis: set count %d not a positive power of two", nSets))
	}
	ways := geom.Ways
	c := &Compiled{s: s, geom: geom, slots: nSets * ways}
	if c.slots > opSlotMask+1 {
		return c
	}
	for _, a := range s {
		if a.Gap < 0 || a.Gap > maxOpGap || c.gapSum >= kernelClockLimit {
			return c
		}
		c.gapSum += a.Gap
	}
	lineShift := uint(bits.TrailingZeros(uint(geom.LineBytes)))
	setMask := uint64(nSets - 1)
	// Tag state per slot: the resident line and its last use; lastUse 0
	// marks an invalid slot (the use clock starts at 1).
	type tag struct{ line, lastUse uint64 }
	tags := make([]tag, c.slots)
	ops := make([]uint64, len(s))
	dropResident := TestHooks.CompileDropResident
	for i, a := range s {
		line := a.Addr >> lineShift
		base := int(line&setMask) * ways
		slot, resident := -1, false
		for w := base; w < base+ways; w++ {
			if tags[w].lastUse != 0 && tags[w].line == line {
				slot, resident = w, true
				break
			}
		}
		if !resident {
			// First invalid way, else strict LRU: the lowest way wins ties,
			// exactly cache.VictimFor with no pinning.
			for w := base; w < base+ways; w++ {
				if tags[w].lastUse == 0 {
					slot = w
					break
				}
				if slot == -1 || tags[w].lastUse < tags[slot].lastUse {
					slot = w
				}
			}
			tags[slot].line = line
		}
		tags[slot].lastUse = uint64(i) + 1
		op := uint64(a.Gap)<<opGapShift | uint64(slot)<<opSlotShift
		if a.Kind == trace.Write {
			op |= opWrite
		}
		if resident {
			if dropResident && a.Kind == trace.Read {
				// Seeded fault: the first resident read compiles as a miss.
				dropResident = false
			} else {
				op |= opResident
			}
		}
		ops[i] = op
	}
	c.ops = ops
	return c
}

// exact reports whether the kernel answers this query bit-identically: the
// ops are packed and no clock can reach kernelClockLimit, whatever the
// hit/miss split (each access adds its gap plus at most max(|latHit|, |wcl|)).
func (c *Compiled) exact(latHit, wcl int64) bool {
	if c.ops == nil || latHit == math.MinInt64 {
		return false
	}
	step := max(latHit, -latHit, wcl, -wcl)
	if step > (kernelClockLimit-math.MaxInt32)/int64(len(c.ops)+1) {
		return false
	}
	return c.gapSum+step*int64(len(c.ops)) < kernelClockLimit-math.MaxInt32
}

// GuaranteedHitsBatch computes GuaranteedHits for every column: hits[i],
// misses[i] receive the guaranteed hit/miss split of thetas[i],
// bit-identical to GuaranteedHits(s, geom, lat, thetas[i], wcl). hits and
// misses must have len(thetas) entries. Untimed columns (θ ≤ 0) classify
// every access a miss without entering the kernel, exactly like the scalar
// early return; a timed column with a non-positive WCL panics, as there.
// sc may be nil for a one-off call.
func (c *Compiled) GuaranteedHitsBatch(sc *Scratch, lat config.Latencies, thetas []config.Timer, wcl int64, hits, misses []int64) {
	if len(hits) != len(thetas) || len(misses) != len(thetas) {
		panic(fmt.Sprintf("analysis: batch outputs %d/%d for %d columns", len(hits), len(misses), len(thetas)))
	}
	if sc == nil {
		sc = new(Scratch)
	}
	lambda := int64(len(c.s))
	cols := sc.cols[:0]
	for k, th := range thetas {
		if !th.Timed() {
			hits[k], misses[k] = 0, lambda
			continue
		}
		if wcl <= 0 {
			// Same guard, same message as the scalar kernel.
			panic(fmt.Sprintf("analysis: non-positive WCL %d", wcl))
		}
		cols = append(cols, k)
	}
	sc.cols = cols
	if len(cols) == 0 {
		return
	}
	if !c.exact(lat.Hit, wcl) {
		for _, k := range cols {
			hits[k], misses[k] = GuaranteedHits(c.s, c.geom, lat, thetas[k], wcl)
		}
		return
	}
	// Four columns per pass; a remainder of three is padded to a 4-lane
	// pass, one or two run 1-lane.
	for len(cols) >= 3 {
		var th [4]int64
		for l := range th {
			th[l] = int64(thetas[cols[min(l, len(cols)-1)]])
		}
		h := c.run4(sc.state(4*c.slots), &th, lat.Hit, wcl)
		for l := 0; l < 4 && l < len(cols); l++ {
			hits[cols[l]] = h[l]
		}
		cols = cols[min(4, len(cols)):]
	}
	for _, k := range cols {
		hits[k], _ = c.run1(sc.state(c.slots), int64(thetas[k]), lat.Hit, wcl)
	}
	for _, k := range sc.cols {
		misses[k] = lambda - hits[k]
	}
}

// IsolationHitsBatch is the batched form of IsolationHits: the in-isolation
// analysis with misses priced at one uncontended slot (SW).
func (c *Compiled) IsolationHitsBatch(sc *Scratch, lat config.Latencies, thetas []config.Timer, hits, misses []int64) {
	c.GuaranteedHitsBatch(sc, lat, thetas, lat.SlotWidth(), hits, misses)
}

// TimerSample is one oracle sample produced during a saturation sweep: the
// guaranteed hit/miss split of one timer, under the in-isolation per-miss
// cost (one slot). Callers memoizing IsolationHits results can seed their
// memo from these.
type TimerSample struct {
	Theta        config.Timer
	Hits, Misses int64
}

// satGrid is SaturationTimer's evaluation grid: the saturation reference
// (TimerMax), the lower anchor (1), and the scalar sweep's doubling ladder.
// The scalar sweep evaluates these lazily, one full stream walk each; the
// batched sweep evaluates the whole grid up front.
var satGrid = func() []config.Timer {
	g := []config.Timer{config.TimerMax, 1}
	for th := config.Timer(2); th < config.TimerMax; th *= 2 {
		g = append(g, th)
	}
	return g
}()

// SaturationTimer is the batched form of the package-level SaturationTimer:
// same result — the smallest swept θ reaching the saturation hit count, and
// that count — via the same doubling-grid + binary-search decision sequence,
// with the entire grid evaluated in 4-lane passes and each refinement
// midpoint as a single-column batch. The returned samples record every
// (θ → hits, misses) oracle evaluation the sweep performed, grid points
// first, refinement midpoints after, so callers can seed an IsolationHits
// memo for free.
func (c *Compiled) SaturationTimer(sc *Scratch, lat config.Latencies) (config.Timer, int64, []TimerSample) {
	if sc == nil {
		sc = new(Scratch)
	}
	wcl := lat.SlotWidth()
	hits := make([]int64, len(satGrid))
	misses := make([]int64, len(satGrid))
	c.GuaranteedHitsBatch(sc, lat, satGrid, wcl, hits, misses)
	samples := make([]TimerSample, len(satGrid), len(satGrid)+16)
	for k := range satGrid {
		samples[k] = TimerSample{Theta: satGrid[k], Hits: hits[k], Misses: misses[k]}
	}
	var (
		oneTheta [1]config.Timer
		oneHit   [1]int64
		oneMiss  [1]int64
	)
	evalOne := func(th config.Timer) int64 {
		oneTheta[0] = th
		c.GuaranteedHitsBatch(sc, lat, oneTheta[:], wcl, oneHit[:], oneMiss[:])
		samples = append(samples, TimerSample{Theta: th, Hits: oneHit[0], Misses: oneMiss[0]})
		return oneHit[0]
	}
	maxHits := hits[0] // grid[0] = TimerMax
	if maxHits == hits[1] {
		return 1, maxHits, samples
	}
	// Doubling to find the first grid point reaching saturation — the same
	// decision sequence as the scalar sweep, read off the prefilled grid.
	lo, hi := config.Timer(1), config.TimerMax
	for k := 2; k < len(satGrid); k++ {
		if hits[k] >= maxHits {
			hi = satGrid[k]
			break
		}
		lo = satGrid[k]
	}
	// Binary search the smallest saturating θ in (lo, hi].
	for lo+1 < hi {
		mid := lo + (hi-lo)/2
		if evalOne(mid) >= maxHits {
			hi = mid
		} else {
			lo = mid
		}
	}
	return hi, maxHits, samples
}

// The kernels run on a doubled clock, N = 2·now, so a slot's packed state
// v = 2·(fetchedAt+θ) | Modified compares against N without a shift: with
// w = 1 for a write, a resident access is inside its window iff
// N + w − 1 < v (for a read, 2·now ≤ 2·deadline; for a write that also
// finds the Modified bit, 2·now+1 ≤ 2·deadline+1), and its kind condition
// holds iff (v | ¬w) is odd. Every decision is a 0/−1 mask, so the loop has
// no data-dependent branch. The caller guarantees exact(latHit, wcl), so no
// step overflows.

// run1 is the 1-lane kernel: one pass over the ops for one timed column.
// Besides the hit count it returns next, the smallest θ' > θ at which this
// pass's classification can first differ — the minimum age now − fetchedAt
// over window misses whose kind condition holds (a read, or a write finding
// a Modified copy) — or TimerMax+1 when no such age lies in the timer
// domain.
//
//cohort:hotpath
func (c *Compiled) run1(st []int64, theta, latHit, wcl int64) (hits, next int64) {
	th2, dh2, wcl2 := 2*theta, 2*(latHit-wcl), 2*wcl
	brk := 2 * (uint64(config.TimerMax) + 1)
	var n int64
	for _, op := range c.ops {
		n += int64(op>>opGapShift) << 1
		w := int64(op>>1) & 1
		k := int(op >> opSlotShift & opSlotMask)
		v := st[k]
		ok := -(int64(op) & (v | (w ^ 1)) & 1) // resident, and the kind condition holds
		in := (n + w - 1 - v) >> 63            // −1 inside the window, else 0
		hm := in & ok
		hits -= hm
		// A window miss with the kind condition met: its doubled age is a
		// candidate breakpoint (every other access offers all ones).
		brk = min(brk, uint64(n-v&^1+th2)|uint64(in|^ok))
		n += wcl2 + dh2&hm
		nv := n + th2 + w
		st[k] = nv ^ (nv^v)&hm
	}
	return hits, int64(brk >> 1)
}

// run4 is the 4-lane kernel: one pass over the ops for four timed columns,
// their slot states interleaved (slot k of lane l at 4k+l) so one access
// reads one contiguous group. Each lane is run1's recurrence without the
// breakpoint; the four lanes' dependency chains are independent, which is
// where the pass's throughput comes from.
//
//cohort:hotpath
func (c *Compiled) run4(st []int64, theta *[4]int64, latHit, wcl int64) (hits [4]int64) {
	dh2, wcl2 := 2*(latHit-wcl), 2*wcl
	var n0, n1, n2, n3, h0, h1, h2, h3 int64
	for _, op := range c.ops {
		gap := int64(op>>opGapShift) << 1
		w := int64(op>>1) & 1
		w1 := w - 1
		kind := int64(op) & (w ^ 1) // resident read: the kind condition holds
		res := int64(op) & 1
		k := int(op>>opSlotShift&opSlotMask) * 4
		s := st[k : k+4 : k+4]

		n0 += gap
		v0 := s[0]
		hm0 := (n0 + w1 - v0) >> 63 & -((v0&res | kind) & 1)
		h0 -= hm0
		n0 += wcl2 + dh2&hm0
		nv0 := n0 + 2*theta[0] + w
		s[0] = nv0 ^ (nv0^v0)&hm0

		n1 += gap
		v1 := s[1]
		hm1 := (n1 + w1 - v1) >> 63 & -((v1&res | kind) & 1)
		h1 -= hm1
		n1 += wcl2 + dh2&hm1
		nv1 := n1 + 2*theta[1] + w
		s[1] = nv1 ^ (nv1^v1)&hm1

		n2 += gap
		v2 := s[2]
		hm2 := (n2 + w1 - v2) >> 63 & -((v2&res | kind) & 1)
		h2 -= hm2
		n2 += wcl2 + dh2&hm2
		nv2 := n2 + 2*theta[2] + w
		s[2] = nv2 ^ (nv2^v2)&hm2

		n3 += gap
		v3 := s[3]
		hm3 := (n3 + w1 - v3) >> 63 & -((v3&res | kind) & 1)
		h3 -= hm3
		n3 += wcl2 + dh2&hm3
		nv3 := n3 + 2*theta[3] + w
		s[3] = nv3 ^ (nv3^v3)&hm3
	}
	return [4]int64{h0, h1, h2, h3}
}
