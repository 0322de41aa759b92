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
//   - Count: ~176 allocs for this workload, dominated by one-time setup —
//     trace copies, cache arrays, event-queue backing. The pre-overhaul
//     kernel took ~38,000 allocs on the same workload, so the guard trips
//     long before boxing, per-event closures or a record per distinct line
//     (~130 more allocs here) creep back into the hot path.
//   - Bytes: ~82 KiB. A perfect LLC builds no array; when it still built
//     its unused 2 MiB, 8-way one, construction alone cost ~1.4 MB, so the
//     guard trips if a large structure the run never reads comes back.
//
// The observed case adds a governor on a short window, so governor samples
// are ~820 of the run's events. Their typed events allocate nothing; only
// the decision log grows (~12 allocs, ~59 KiB over the plain case).
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
	const runs = 10
	for _, tc := range []struct {
		name        string
		observe     func(*cohort.System) error
		ceiling     float64
		byteCeiling uint64
	}{
		{"plain", func(*cohort.System) error { return nil }, 200, 88 << 10},
		{"governed", func(sys *cohort.System) error {
			return sys.SetGovernor(cohort.Governor{Core: 0, Window: 50, Budget: 1 << 40})
		}, 210, 152 << 10},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func() {
				sys, err := cohort.NewSystem(cfg, tr)
				if err != nil {
					t.Fatal(err)
				}
				if err := tc.observe(sys); err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Run(); err != nil {
					t.Fatal(err)
				}
			}
			allocs := testing.AllocsPerRun(runs, run)
			if allocs > tc.ceiling {
				t.Fatalf("simulation allocated %.0f times per run, ceiling %.0f — a hot path regressed to per-event allocation", allocs, tc.ceiling)
			}
			t.Logf("allocs per construct+run: %.0f (ceiling %.0f)", allocs, tc.ceiling)

			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				run()
			}
			runtime.ReadMemStats(&after)
			bytes := (after.TotalAlloc - before.TotalAlloc) / runs
			if bytes > tc.byteCeiling {
				t.Fatalf("simulation allocated %d bytes per construct+run, ceiling %d — construction is building state the run never reads", bytes, tc.byteCeiling)
			}
			t.Logf("bytes per construct+run: %d (ceiling %d)", bytes, tc.byteCeiling)
		})
	}
}
