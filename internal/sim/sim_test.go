package sim

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// fired is one dispatched event as a recorder saw it.
type fired struct {
	at     Cycle
	kind   Kind
	recv   int32
	p0, p1 uint64
}

// recorder is a test Handler: it logs every event it dispatches, in firing
// order, then runs the optional then hook (which may schedule more events).
type recorder struct {
	fired []fired
	then  func(f fired)
}

func (r *recorder) HandleEvent(now Cycle, kind Kind, recv int32, p0, p1 uint64) {
	f := fired{at: now, kind: kind, recv: recv, p0: p0, p1: p1}
	r.fired = append(r.fired, f)
	if r.then != nil {
		r.then(f)
	}
}

// newRecorded returns an engine with a fresh recorder installed.
func newRecorded() (*Engine, *recorder) {
	e, r := New(), &recorder{}
	e.SetHandler(r)
	return e, r
}

func TestZeroValueEngine(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("zero engine Now() = %d, want 0", e.Now())
	}
	if e.Pending() != 0 {
		t.Fatalf("zero engine Pending() = %d, want 0", e.Pending())
	}
	if e.Step() {
		t.Fatal("Step on empty engine reported an event")
	}
}

func TestScheduleOrdering(t *testing.T) {
	e, r := newRecorded()
	e.ScheduleKind(10, 4, 2, 20, 21)
	e.ScheduleKind(5, 3, 1, 10, 11)
	e.ScheduleKind(20, 5, 3, 30, 31)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	want := []fired{{5, 3, 1, 10, 11}, {10, 4, 2, 20, 21}, {20, 5, 3, 30, 31}}
	if len(r.fired) != len(want) {
		t.Fatalf("fired %v, want %v", r.fired, want)
	}
	for i := range want {
		if r.fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", r.fired, want)
		}
	}
	if e.Now() != 20 {
		t.Fatalf("Now = %d, want 20", e.Now())
	}
}

func TestSameCycleFIFO(t *testing.T) {
	e, r := newRecorded()
	e.Reserve(100)
	backing := cap(e.queue.s)
	for i := 0; i < 100; i++ {
		e.ScheduleKind(7, 0, int32(i), 0, 0)
	}
	if cap(e.queue.s) != backing {
		t.Fatalf("queue backing grew from %d to %d despite Reserve", backing, cap(e.queue.s))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for i, f := range r.fired {
		if f.recv != int32(i) {
			t.Fatalf("same-cycle events not FIFO: fired[%d].recv = %d", i, f.recv)
		}
	}
}

func TestZeroDelayRunsInCurrentCycle(t *testing.T) {
	e, r := newRecorded()
	r.then = func(f fired) {
		if f.recv == 0 {
			e.ScheduleKind(0, 0, 1, 0, 0)
		}
	}
	e.ScheduleKind(3, 0, 0, 0, 0)
	e.ScheduleKind(3, 0, 2, 0, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The zero-delay event runs in cycle 3, after the event already queued
	// for that cycle.
	want := []int32{0, 2, 1}
	for i, f := range r.fired {
		if f.at != 3 || f.recv != want[i] {
			t.Fatalf("fired %v, want recvs %v all at cycle 3", r.fired, want)
		}
	}
}

func TestScheduleAtPast(t *testing.T) {
	e, _ := newRecorded()
	e.ScheduleKind(10, 0, 0, 0, 0)
	e.Step()
	if err := e.ScheduleKindAt(5, 0, 0, 0, 0); !errors.Is(err, ErrPastEvent) {
		t.Fatalf("ScheduleKindAt(past) err = %v, want ErrPastEvent", err)
	}
	if e.Pending() != 0 {
		t.Fatalf("rejected event was queued: Pending = %d", e.Pending())
	}
	if err := e.ScheduleKindAt(10, 0, 0, 0, 0); err != nil {
		t.Fatalf("ScheduleKindAt(now) err = %v, want nil", err)
	}
}

func TestNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleKind(-1) did not panic")
		}
	}()
	e, _ := newRecorded()
	e.ScheduleKind(-1, 0, 0, 0, 0)
}

func TestNoHandlerPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("ScheduleKind with no Handler did not panic")
		}
	}()
	New().ScheduleKind(1, 0, 0, 0, 0)
}

func TestBudget(t *testing.T) {
	e, r := newRecorded()
	e.SetBudget(10)
	e.ScheduleKind(5, 0, 0, 0, 0)
	e.ScheduleKind(50, 0, 1, 0, 0)
	err := e.Run()
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("Run err = %v, want ErrBudgetExceeded", err)
	}
	if e.Now() != 5 || len(r.fired) != 1 {
		t.Fatalf("Now = %d after %d events, want 5 after 1 (only first event runs)", e.Now(), len(r.fired))
	}
	e.SetBudget(0)
	if err := e.Run(); err != nil {
		t.Fatalf("Run after lifting budget: %v", err)
	}
	if len(r.fired) != 2 {
		t.Fatalf("fired %d events after lifting budget, want 2", len(r.fired))
	}
}

func TestCascadingEvents(t *testing.T) {
	e, r := newRecorded()
	r.then = func(fired) {
		if len(r.fired) < 1000 {
			e.ScheduleKind(1, 0, 0, 0, 0)
		}
	}
	e.ScheduleKind(0, 0, 0, 0, 0)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if len(r.fired) != 1000 {
		t.Fatalf("count = %d, want 1000", len(r.fired))
	}
	if e.Now() != 999 {
		t.Fatalf("Now = %d, want 999", e.Now())
	}
}

// Property: events always fire in nondecreasing time order regardless of the
// insertion order of delays.
func TestPropertyMonotonicTime(t *testing.T) {
	f := func(delays []uint16) bool {
		e, r := newRecorded()
		for _, d := range delays {
			e.ScheduleKind(Cycle(d), 0, 0, 0, 0)
		}
		if err := e.Run(); err != nil {
			return false
		}
		// All delays observed exactly once, in sorted order.
		if len(r.fired) != len(delays) {
			return false
		}
		want := make([]Cycle, len(delays))
		for i, d := range delays {
			want[i] = Cycle(d)
		}
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if r.fired[i].at != want[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: two engines fed the same schedule produce identical execution
// traces (determinism).
func TestPropertyDeterminism(t *testing.T) {
	run := func(seed int64) []fired {
		rng := rand.New(rand.NewSource(seed))
		e, r := newRecorded()
		for i := 0; i < 500; i++ {
			e.ScheduleKind(Cycle(rng.Intn(100)), Kind(rng.Intn(4)), int32(i), rng.Uint64(), 0)
		}
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return r.fired
	}
	a, b := run(42), run(42)
	if len(a) != len(b) {
		t.Fatal("trace lengths differ")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// countdown is a benchmark Handler that reschedules itself until remaining
// reaches zero.
type countdown struct {
	e         *Engine
	remaining int
}

func (c *countdown) HandleEvent(Cycle, Kind, int32, uint64, uint64) {
	c.remaining--
	if c.remaining > 0 {
		c.e.ScheduleKind(1, 0, 0, 0, 0)
	}
}

func BenchmarkEngineThroughput(b *testing.B) {
	e := New()
	e.SetHandler(&countdown{e: e, remaining: b.N})
	b.ReportAllocs()
	b.ResetTimer()
	e.ScheduleKind(0, 0, 0, 0, 0)
	if err := e.Run(); err != nil {
		b.Fatal(err)
	}
}
