package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"cohort/internal/config"
	"cohort/internal/trace"
)

// interleaveDigest is the SHA-256 of the sampled series, the governor log
// and the measurements of the run in TestObservedEventInterleaving. It was
// captured when the sampler and governor still scheduled closures on the
// engine; their typed events must fire at the same (cycle, seq) positions.
const interleaveDigest = "e0f3196dd67153c8c90133cefbd3a1eab7e3d1d1d5a7823ad94094fa23cf9707"

// TestObservedEventInterleaving pins the order in which sampler ticks,
// governor samples, a scheduled mode switch and the simulator's own events
// fire when they share a cycle. Two samplers (windows 250 and 500), the
// governor (window 500) and the mode switch (cycle 2000) all land on common
// cycles, and the run checks that simulator events land there too; a sampler
// or governor event moved before or after a same-cycle access completion
// changes the recorded latencies and so the digest.
func TestObservedEventInterleaving(t *testing.T) {
	p, err := trace.ProfileByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	tr := p.Scaled(0.1).Generate(4, 64, 42)
	cfg := config.PaperDefaults(4, 3)
	for i := range cfg.Cores {
		cfg.Cores[i].Criticality = 3 - i%3
		cfg.Cores[i].TimerLUT = []config.Timer{config.Timer(100 + 100*i), config.Timer(20 * i), config.TimerMSI}
	}
	sys, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := sys.SampleLatencyCores(250, 0); err != nil {
		t.Fatal(err)
	}
	if err := sys.SampleLatencyCores(500, 2); err != nil {
		t.Fatal(err)
	}
	if err := sys.SetGovernor(Governor{Core: 0, Window: 500, Budget: 400}); err != nil {
		t.Fatal(err)
	}
	if err := sys.ScheduleModeSwitch(2000, 2); err != nil {
		t.Fatal(err)
	}
	simCycles := map[int64]bool{}
	if err := sys.SetTracer(tracerFunc(func(ev TraceEvent) {
		if ev.Kind != EvModeSwitch {
			simCycles[ev.Cycle] = true
		}
	})); err != nil {
		t.Fatal(err)
	}
	run, err := sys.Run()
	if err != nil {
		t.Fatal(err)
	}

	s0, s2, hist := sys.LatencySeriesFor(0), sys.LatencySeriesFor(2), sys.GovernorHistory()
	shared := 0
	for _, sm := range s0 {
		if simCycles[sm.At] {
			shared++
		}
	}
	if len(s2) == 0 || len(hist) == 0 || shared == 0 || run.ModeSwitches < 2 {
		t.Fatalf("run does not exercise the interleaving: %d/%d samples, %d decisions, %d shared cycles, %d switches",
			len(s0), len(s2), len(hist), shared, run.ModeSwitches)
	}

	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%+v\n%+v\n%+v\n", s0, s2, hist, *run)
	if got := hex.EncodeToString(h.Sum(nil)); got != interleaveDigest {
		t.Fatalf("observed-run digest = %s, want %s", got, interleaveDigest)
	}
}
