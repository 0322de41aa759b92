// Package eventgoroutine is golden-test input for the eventgoroutine
// analyzer. Its handlers implement the real sim.Handler so interface
// resolution works exactly as in simulator code.
package eventgoroutine

import "cohort/internal/sim"

// bad spawns a goroutine and talks over channels inside its event dispatch.
type bad struct{ ch chan int }

func (b *bad) HandleEvent(now sim.Cycle, kind sim.Kind, recv int32, p0, p1 uint64) {
	switch kind {
	case 0:
		go func() {}() // want "goroutine spawned inside a sim.Handler event dispatch"
		b.ch <- 1      // want "channel send inside a sim.Handler event dispatch"
	case 1:
		<-b.ch // want "channel receive inside a sim.Handler event dispatch"
		select { // want "select inside a sim.Handler event dispatch"
		default:
		}
	default:
		for range b.ch { // want "range over channel inside a sim.Handler event dispatch"
		}
	}
}

// badNested hides the close in a nested literal of a value-receiver
// handler; the literal still runs inside the event.
type badNested struct{ ch chan int }

func (b badNested) HandleEvent(sim.Cycle, sim.Kind, int32, uint64, uint64) {
	helper := func() {
		close(b.ch) // want "channel close inside a sim.Handler event dispatch"
	}
	helper()
}

// good schedules a follow-up event instead of forking work.
type good struct{ eng *sim.Engine }

func (g *good) HandleEvent(now sim.Cycle, kind sim.Kind, recv int32, p0, p1 uint64) {
	g.eng.ScheduleKind(3, kind, recv, p0, p1)
}

// notHandler's HandleEvent does not satisfy sim.Handler, so the engine
// never dispatches it and it may coordinate however it likes.
type notHandler struct{ ch chan int }

func (n notHandler) HandleEvent(v int) { n.ch <- v }

// goodOutside uses channels outside any handler: allowed (drivers and CLIs
// coordinate however they like; only the event loop is constrained).
func goodOutside(ch chan int) {
	go func() { ch <- 1 }()
	<-ch
}
