package core

import (
	"fmt"
	"testing"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/trace"
)

// TestStressRandomPlatforms sweeps randomized platform/workload combinations
// and checks, for every one: the run completes (no protocol deadlock), every
// access finishes, the coherence invariants hold, measured latencies respect
// the analytical bounds where they exist, and the run is deterministic.
func TestStressRandomPlatforms(t *testing.T) {
	if testing.Short() {
		t.Skip("stress sweep skipped in -short mode")
	}
	rng := trace.NewRNG(2026)
	arbiters := []config.Arbiter{config.ArbiterRROF, config.ArbiterRR, config.ArbiterFCFS, config.ArbiterTDM}
	for iter := 0; iter < 120; iter++ {
		nCores := 2 + rng.Intn(5) // 2..6
		levels := 1 + rng.Intn(3)
		p := trace.Profile{
			Name:            fmt.Sprintf("stress%d", iter),
			AccessesPerCore: 50 + rng.Intn(300),
			SharedLines:     1 + rng.Intn(24),
			PrivateLines:    1 + rng.Intn(48),
			PShared:         0.1 + 0.8*rng.Float64(),
			ZipfS:           rng.Float64() * 1.2,
			PWrite:          rng.Float64(),
			PRepeat:         rng.Float64() * 0.9,
			RepeatWindow:    1 + rng.Intn(8),
			MeanGap:         float64(rng.Intn(6)),
		}
		tr := p.Generate(nCores, 64, rng.Uint64())

		cfg := config.PaperDefaults(nCores, levels)
		cfg.Arbiter = arbiters[rng.Intn(len(arbiters))]
		cfg.PerfectLLC = rng.Intn(2) == 0
		if rng.Intn(2) == 0 {
			cfg.Snoop = config.SnoopMESI
		}
		if rng.Intn(3) == 0 {
			cfg.Transfer = config.TransferViaMemory
		}
		if cfg.Arbiter == config.ArbiterTDM && rng.Intn(2) == 0 {
			cfg.PendulumCritOnly = true
		}
		for i := 0; i < nCores; i++ {
			cfg.Cores[i].Criticality = 1 + rng.Intn(levels)
			for m := 0; m < levels; m++ {
				switch rng.Intn(4) {
				case 0:
					cfg.Cores[i].TimerLUT[m] = config.TimerMSI
				case 1:
					cfg.Cores[i].TimerLUT[m] = config.TimerNoCache
				default:
					cfg.Cores[i].TimerLUT[m] = config.Timer(1 + rng.Intn(800))
				}
			}
		}
		cfg.Mode = 1 + rng.Intn(levels)
		// Every stress run doubles as an invariant-checker soak: SWMR,
		// value consistency, inclusion and timer bounds are re-validated
		// after every bus transaction.
		cfg.CheckInvariants = true

		label := fmt.Sprintf("iter %d (n=%d arb=%s snoop=%s transfer=%s perfect=%v mode=%d timers=%v)",
			iter, nCores, cfg.Arbiter, cfg.Snoop, cfg.Transfer, cfg.PerfectLLC, cfg.Mode, cfg.Timers())

		bounds, err := analysis.Bounds(cfg, tr)
		if err != nil {
			t.Fatalf("%s: bounds: %v", label, err)
		}
		var dbg dbgTracer
		runOnce := func(withSwitch bool) *System {
			sys, err := New(cfg, tr)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			dbg.evs = nil
			sys.SetTracer(&dbg)
			if withSwitch && levels > 1 {
				if err := sys.ScheduleModeSwitch(int64(500+rng.Intn(2000)), 1+rng.Intn(levels)); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
			}
			run, err := sys.Run()
			if err != nil {
				t.Fatalf("%s: run: %v", label, err)
			}
			for i := range run.Cores {
				if run.Cores[i].Accesses != int64(tr.Lambda(i)) {
					t.Fatalf("%s: core %d completed %d/%d", label, i, run.Cores[i].Accesses, tr.Lambda(i))
				}
			}
			if err := sys.CheckCoherence(); err != nil {
				t.Fatalf("%s: coherence: %v", label, err)
			}
			return sys
		}
		sys := runOnce(false)
		if sys.InvariantChecks() == 0 {
			t.Fatalf("%s: invariant checker enabled but never ran", label)
		}
		// Bound checks only where the analysis promises them: MSI-snoop
		// direct/via-memory systems without mode switches. (MESI only
		// removes misses, so the MSI bounds still dominate.)
		for i := range sys.run.Cores {
			b := bounds[i]
			if b.WCL == analysis.Unbounded {
				continue
			}
			if got := sys.run.Cores[i].MaxMissLatency; got > b.WCL {
				t.Fatalf("%s: core %d latency %d exceeds WCL %d\n%s", label, i, got, b.WCL, dbg.worstWindow(i))
			}
			if got := sys.run.Cores[i].TotalLatency; got > b.WCMLBound {
				t.Fatalf("%s: core %d WCML %d exceeds bound %d", label, i, got, b.WCMLBound)
			}
		}
		// Determinism.
		again := runOnce(false)
		if sys.run.String() != again.run.String() {
			t.Fatalf("%s: nondeterministic run", label)
		}
		// And with a random mid-run mode switch: still completes coherently.
		runOnce(true)
	}
}

// dbgTracer records events for failure forensics.
type dbgTracer struct{ evs []TraceEvent }

func (d *dbgTracer) Trace(ev TraceEvent) { d.evs = append(d.evs, ev) }

// worstWindow renders the events around the given core's longest miss.
func (d *dbgTracer) worstWindow(core int) string {
	pend := map[int]int64{}
	var worst, ws, we int64
	for _, ev := range d.evs {
		switch ev.Kind {
		case EvMissStart:
			pend[ev.Core] = ev.Cycle
		case EvMissEnd:
			if s0, ok := pend[ev.Core]; ok && ev.Core == core && ev.Cycle-s0 > worst {
				worst, ws, we = ev.Cycle-s0, s0, ev.Cycle
			}
		}
	}
	out := fmt.Sprintf("worst miss of core %d: [%d,%d] = %d\n", core, ws, we, worst)
	for _, ev := range d.evs {
		if ev.Cycle >= ws-200 && ev.Cycle <= we+5 {
			out += fmt.Sprintf("  t=%6d %-10s core=%d line=%x until=%d\n", ev.Cycle, ev.Kind, ev.Core, ev.Line, ev.Until)
		}
	}
	return out
}

// TestStressSingleHotLine hammers one line from many cores under
// every arbiter — the worst case Eq. 1 is written for.
func TestStressSingleHotLine(t *testing.T) {
	for _, arb := range []config.Arbiter{config.ArbiterRROF, config.ArbiterRR, config.ArbiterFCFS, config.ArbiterTDM} {
		for _, theta := range []config.Timer{config.TimerMSI, 0, 1, 30, 500} {
			cfg := config.PaperDefaults(4, 1)
			cfg.Arbiter = arb
			cfg.CheckInvariants = true
			if err := cfg.SetTimers(1, []config.Timer{theta, theta, theta, theta}); err != nil {
				t.Fatal(err)
			}
			var streams []trace.Stream
			for c := 0; c < 4; c++ {
				var s trace.Stream
				for i := 0; i < 40; i++ {
					s = append(s, trace.Access{Addr: lineA, Kind: trace.Write, Gap: int64(c)})
				}
				streams = append(streams, s)
			}
			sys, err := New(cfg, mkTrace(streams...))
			if err != nil {
				t.Fatal(err)
			}
			run, err := sys.Run()
			if err != nil {
				t.Fatalf("arb=%s θ=%v: %v", arb, theta, err)
			}
			if err := sys.CheckCoherence(); err != nil {
				t.Fatalf("arb=%s θ=%v: %v", arb, theta, err)
			}
			// Every write committed exactly once: the final version equals
			// the total number of writes.
			li := sys.dir.Peek(sys.cores[0].l1.LineAddr(lineA))
			if li == nil || li.Version != 160 {
				t.Fatalf("arb=%s θ=%v: version = %v, want 160", arb, theta, li)
			}
			// RROF bound check for the bounded arbiters.
			if arb == config.ArbiterRROF {
				wcl := analysis.WCLCoHoRT(cfg.Lat, cfg.Timers(), 0)
				for i := range run.Cores {
					if run.Cores[i].MaxMissLatency > wcl {
						t.Fatalf("θ=%v: core %d latency %d exceeds %d", theta, i, run.Cores[i].MaxMissLatency, wcl)
					}
				}
			}
		}
	}
}

// TestStressReadersWriterMix interleaves a writer with many readers so GetS
// chains, sharer invalidations and upgrades all fire together.
func TestStressReadersWriterMix(t *testing.T) {
	for _, theta := range []config.Timer{config.TimerMSI, 25, 400} {
		cfg := config.PaperDefaults(4, 1)
		cfg.CheckInvariants = true
		if err := cfg.SetTimers(1, []config.Timer{theta, theta, theta, theta}); err != nil {
			t.Fatal(err)
		}
		rng := trace.NewRNG(7)
		var streams []trace.Stream
		for c := 0; c < 4; c++ {
			var s trace.Stream
			for i := 0; i < 120; i++ {
				kind := trace.Read
				// Core 0 writes often; others mostly read with rare writes.
				if (c == 0 && i%3 == 0) || rng.Intn(10) == 0 {
					kind = trace.Write
				}
				s = append(s, trace.Access{
					Addr: lineA + uint64(rng.Intn(3))*64, // 3 hot lines
					Kind: kind,
					Gap:  int64(rng.Intn(4)),
				})
			}
			streams = append(streams, s)
		}
		sys, err := New(cfg, mkTrace(streams...))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(); err != nil {
			t.Fatalf("θ=%v: %v", theta, err)
		}
		if err := sys.CheckCoherence(); err != nil {
			t.Fatalf("θ=%v: %v", theta, err)
		}
	}
}
