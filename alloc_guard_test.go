package cohort_test

import (
	"runtime"
	"testing"

	"cohort"
)

// TestAllocationCeiling pins the simulation kernel's allocations: one full
// system construction plus run must stay under two ceilings set just above
// the measured figures.
//
//   - Count: ~310 allocs for this workload, dominated by one-time setup —
//     trace copies, cache arrays, event-queue backing. The pre-overhaul
//     kernel took ~38,000 allocs on the same workload, so the guard trips
//     long before boxing or per-event closures creep back into the hot path.
//   - Bytes: ~97 KiB. A perfect LLC builds no array; when it still built
//     its unused 2 MiB, 8-way one, construction alone cost ~1.4 MB, so the
//     guard trips if a large structure the run never reads comes back.
func TestAllocationCeiling(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector inflates allocation counts")
	}
	p, err := cohort.ProfileByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	tr := p.Scaled(0.1).Generate(4, 64, 42)
	cfg, err := cohort.NewCoHoRT(4, 1, []cohort.Timer{300, 100, 50, cohort.TimerMSI})
	if err != nil {
		t.Fatal(err)
	}
	const (
		ceiling     = 400
		byteCeiling = 120 << 10
		runs        = 10
	)
	run := func() {
		sys, err := cohort.NewSystem(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(runs, run)
	if allocs > ceiling {
		t.Fatalf("simulation allocated %.0f times per run, ceiling %d — a hot path regressed to per-event allocation", allocs, ceiling)
	}
	t.Logf("allocs per construct+run: %.0f (ceiling %d)", allocs, ceiling)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		run()
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / runs
	if bytes > byteCeiling {
		t.Fatalf("simulation allocated %d bytes per construct+run, ceiling %d — construction is building state the run never reads", bytes, byteCeiling)
	}
	t.Logf("bytes per construct+run: %d (ceiling %d)", bytes, byteCeiling)
}
