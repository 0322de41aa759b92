// Package coherence implements the protocol mechanics of CoHoRT: the per-line
// countdown-counter circuit of Fig. 3 (cycle-accurate model plus the
// closed-form lazy equivalent the simulator uses), the Mode-Switch LUT of
// Fig. 2b, and the per-line ownership/waiter bookkeeping shared by all
// protocol variants.
//
// A single mechanism expresses both protocol families (paper §III-B): a core
// whose timer register holds θ ≥ 1 runs time-based coherence; θ = −1 disables
// the counter and reduces the behaviour to standard snooping MSI; θ = 0 makes
// the core serve pending requesters and invalidate immediately.
package coherence

import (
	"fmt"
	"math"
	"math/bits"

	"cohort/internal/config"
)

// MemOwner marks the shared memory (LLC) as the owner of a line.
const MemOwner = -1

// ReleaseTime returns the earliest cycle ≥ req at which a core that
// (re)fetched a line at cycle fetched, running with timer θ, hands the line
// to a remote requester whose request became visible at cycle req.
//
// For θ ≥ 1 the countdown counter expires at fetched+θ, fetched+2θ, …
// (replenishing whenever no remote requester waits); the line is released at
// the first expiry at or after the request. For θ = −1 (MSI) and θ = 0
// (no-cache) the line is released immediately.
// The result saturates at math.MaxInt64 instead of wrapping: callers compare
// release cycles with < and schedule events at them, so a wrapped (negative)
// release would silently disable the timer protection.
//
//cohort:hotpath
func ReleaseTime(fetched, req int64, theta config.Timer) int64 {
	if !theta.Timed() {
		return req
	}
	t := uint64(int64(theta))
	if req <= fetched {
		return satAdd(fetched, t)
	}
	// req − fetched can exceed MaxInt64 when fetched is far in the negative
	// range; two's-complement subtraction in uint64 is exact for req > fetched.
	d := uint64(req) - uint64(fetched)
	k := d / t // ceil((req-fetched)/θ), computed without the d+t-1 overflow
	if d%t != 0 {
		k++
	}
	hi, lo := bits.Mul64(k, t)
	if hi != 0 {
		return math.MaxInt64
	}
	return satAdd(fetched, lo)
}

// satAdd returns base + add saturated to math.MaxInt64.
func satAdd(base int64, add uint64) int64 {
	if base < 0 {
		nb := uint64(-(base + 1)) + 1 // −base without overflowing MinInt64
		if add < nb {
			return base + int64(add) // stays negative: cannot overflow
		}
		rest := add - nb
		if rest > math.MaxInt64 {
			return math.MaxInt64
		}
		return int64(rest)
	}
	if add > uint64(math.MaxInt64)-uint64(base) {
		return math.MaxInt64
	}
	return base + int64(add)
}

// CounterAction is the demultiplexer outcome of the Fig. 3 circuit for one
// cycle.
type CounterAction uint8

const (
	// ActionNone: the line stays put (counter still running, or MSI with no
	// pending remote request).
	ActionNone CounterAction = iota
	// ActionInvalidate: the line must be invalidated/handed over.
	ActionInvalidate
	// ActionReplenish: the counter expired with no pending remote request
	// and reloads θ.
	ActionReplenish
)

// String names the action.
func (a CounterAction) String() string {
	switch a {
	case ActionInvalidate:
		return "invalidate"
	case ActionReplenish:
		return "replenish"
	default:
		return "none"
	}
}

// CountdownCounter is a cycle-accurate model of the per-line circuit in
// Fig. 3: a 16-bit countdown counter with a Load input, an Enable signal
// derived from comparing the timer threshold register against the special
// value −1, and a demultiplexer steered by PendingInv.
//
// The simulator itself uses the closed-form ReleaseTime; this model exists to
// validate that the low-cost circuit realizes the same semantics (see the
// equivalence property test).
type CountdownCounter struct {
	theta config.Timer // timer threshold register
	count int32        // current Count output
}

// NewCountdownCounter returns a counter wired to the given threshold
// register value and loads it (the Load signal of a line fill).
func NewCountdownCounter(theta config.Timer) *CountdownCounter {
	if !theta.Valid() {
		panic(fmt.Sprintf("coherence: invalid timer %d", theta))
	}
	c := &CountdownCounter{theta: theta}
	c.Load()
	return c
}

// Load reloads the counter from the threshold register (line fill or
// replenish).
func (c *CountdownCounter) Load() {
	if c.theta.Timed() {
		c.count = int32(c.theta)
	} else {
		c.count = 0
	}
}

// Enable mirrors the comparator of Fig. 3: the counter decrements only when
// the threshold register is not −1.
func (c *CountdownCounter) Enable() bool { return c.theta != config.TimerMSI }

// Count exposes the current counter value.
func (c *CountdownCounter) Count() int32 { return c.count }

// Tick advances one clock cycle with the given PendingInv input and returns
// the resulting action. The caller invalidates the line or keeps it
// according to the action; on ActionReplenish the counter has already
// reloaded θ.
func (c *CountdownCounter) Tick(pendingInv bool) CounterAction {
	if !c.Enable() {
		// MSI: invalidate exactly when a remote requester waits.
		if pendingInv {
			return ActionInvalidate
		}
		return ActionNone
	}
	if c.theta == config.TimerNoCache {
		// θ = 0: never retain.
		return ActionInvalidate
	}
	if c.count > 0 {
		c.count--
	}
	if c.count > 0 {
		return ActionNone
	}
	if pendingInv {
		return ActionInvalidate
	}
	c.Load()
	return ActionReplenish
}

// ModeLUT is the Mode-Switch LUT of Fig. 2b: one 16-bit timer threshold per
// operating mode, indexed by the mode. For five criticality levels this is
// the 80-bit table the paper quotes.
type ModeLUT struct {
	entries []config.Timer
}

// NewModeLUT builds a LUT from per-mode timer values (index 0 = mode 1).
func NewModeLUT(entries []config.Timer) (*ModeLUT, error) {
	if len(entries) == 0 {
		return nil, fmt.Errorf("coherence: empty mode LUT")
	}
	for m, th := range entries {
		if !th.Valid() {
			return nil, fmt.Errorf("coherence: mode %d timer %d invalid", m+1, th)
		}
	}
	return &ModeLUT{entries: append([]config.Timer(nil), entries...)}, nil
}

// Lookup returns θ for 1-based mode m.
func (l *ModeLUT) Lookup(mode int) (config.Timer, error) {
	if mode < 1 || mode > len(l.entries) {
		return 0, fmt.Errorf("coherence: mode %d out of range [1,%d]", mode, len(l.entries))
	}
	idx := mode - 1
	if TestHooks.LUTLookupOffByOne {
		idx = mode % len(l.entries) // seeded fault (mutation tests only)
	}
	return l.entries[idx], nil
}

// Modes returns the number of modes the LUT covers.
func (l *ModeLUT) Modes() int { return len(l.entries) }
