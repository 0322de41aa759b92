// Package sim provides a deterministic discrete-event simulation kernel with
// integer cycle timestamps. It is the substrate under the cycle-accurate
// cache-system model in internal/core: components schedule events at
// absolute cycles and the engine executes them in (time, insertion order)
// order, which makes every run bit-reproducible.
//
// Every event is typed: an enum kind, a receiver index and two payload words
// (ScheduleKind/ScheduleKindAt), dispatched through the engine's Handler. A
// queue item is plain data with no pointers, so scheduling one performs zero
// allocations beyond amortized queue growth and the GC never scans the
// queue's backing array.
package sim

import (
	"errors"
	"fmt"
)

// Cycle is a point in simulated time, measured in clock cycles from reset.
type Cycle int64

// Kind is a small enum identifying a typed event's meaning. The enum values
// belong to the Handler's domain (internal/core defines the simulator's
// kinds); the engine only carries them.
type Kind uint8

// Handler dispatches typed events. The receiver index and payload words are
// opaque to the engine; the handler's jump table interprets them.
type Handler interface {
	HandleEvent(now Cycle, kind Kind, recv int32, p0, p1 uint64)
}

// payload is a queued typed event, dispatched to the engine's Handler when
// it fires.
type payload struct {
	p0   uint64
	p1   uint64
	recv int32
	kind Kind
}

// ErrPastEvent is returned by ScheduleKindAt when the requested cycle precedes
// the engine's current time.
var ErrPastEvent = errors.New("sim: event scheduled in the past")

// Engine is a single-threaded discrete-event simulation engine.
// The zero value is ready to use and starts at cycle 0.
type Engine struct {
	now     Cycle
	seq     uint64
	queue   heap4[payload]
	budget  Cycle // 0 means unlimited
	handler Handler
}

// New returns an engine starting at cycle 0.
func New() *Engine { return &Engine{} }

// Now reports the current simulation time.
func (e *Engine) Now() Cycle { return e.now }

// Pending reports the number of events still queued.
func (e *Engine) Pending() int { return e.queue.len() }

// Reserve preallocates queue backing for at least n additional events, so a
// caller that knows its steady-state queue depth avoids growth reallocations
// mid-run.
func (e *Engine) Reserve(n int) {
	if n > 0 {
		e.queue.grow(n)
	}
}

// SetHandler installs the typed-event dispatcher. Must be set before the
// first ScheduleKind/ScheduleKindAt call.
func (e *Engine) SetHandler(h Handler) { e.handler = h }

// SetBudget limits Run to at most limit cycles of simulated time
// (0 removes the limit). Run returns ErrBudgetExceeded if the limit is hit
// while events remain.
func (e *Engine) SetBudget(limit Cycle) { e.budget = limit }

// ErrBudgetExceeded is returned by Run when the cycle budget set with
// SetBudget is exhausted before the event queue drains.
var ErrBudgetExceeded = errors.New("sim: cycle budget exceeded")

// ScheduleKind queues a typed event delay cycles from now. A zero delay
// fires it later in the current cycle, after all previously queued events
// for this cycle.
//
//cohort:hotpath
func (e *Engine) ScheduleKind(delay Cycle, kind Kind, recv int32, p0, p1 uint64) {
	if delay < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", delay))
	}
	e.pushKind(e.now+delay, kind, recv, p0, p1)
}

// ScheduleKindAt queues a typed event at the absolute cycle at.
func (e *Engine) ScheduleKindAt(at Cycle, kind Kind, recv int32, p0, p1 uint64) error {
	if at < e.now {
		return fmt.Errorf("%w: at=%d now=%d", ErrPastEvent, at, e.now) //cohort:allow hotalloc: scheduling-in-the-past error path; the run aborts
	}
	e.pushKind(at, kind, recv, p0, p1)
	return nil
}

func (e *Engine) pushKind(at Cycle, kind Kind, recv int32, p0, p1 uint64) {
	if e.handler == nil {
		panic("sim: typed event scheduled with no Handler set")
	}
	e.seq++
	e.queue.push(at, e.seq, payload{kind: kind, recv: recv, p0: p0, p1: p1})
}

// Step executes the earliest pending event, advancing time to its cycle.
// It reports whether an event was executed.
//
//cohort:hotpath
func (e *Engine) Step() bool {
	if e.queue.len() == 0 {
		return false
	}
	it := e.queue.pop()
	if it.at < e.now {
		// Heap discipline makes this unreachable; guard anyway.
		panic(fmt.Sprintf("sim: time moved backwards: %d < %d", it.at, e.now))
	}
	e.now = it.at
	e.handler.HandleEvent(e.now, it.v.kind, it.v.recv, it.v.p0, it.v.p1)
	return true
}

// Run executes events until the queue drains or the cycle budget is hit.
//
//cohort:hotpath
func (e *Engine) Run() error {
	for e.queue.len() > 0 {
		if e.budget > 0 && e.queue.s[0].at > e.budget {
			return fmt.Errorf("%w: next event at %d, budget %d", ErrBudgetExceeded, e.queue.s[0].at, e.budget) //cohort:allow hotalloc: budget-exhaustion error path; the run stops
		}
		e.Step()
	}
	return nil
}
