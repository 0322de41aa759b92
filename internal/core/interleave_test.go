package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"cohort/internal/config"
	"cohort/internal/trace"
)

// interleaveDigest is the SHA-256 of the governor log and the measurements
// of the run in TestObservedEventInterleaving. The governor's typed events
// must keep firing at the same (cycle, seq) positions relative to the mode
// switch and the simulator's own events.
const interleaveDigest = "75db05730d242459f68de733d174c2c8756c30bf0e913cd53983e17da7bfedbe"

// TestObservedEventInterleaving pins the order in which governor samples, a
// scheduled mode switch and the simulator's own events fire when they share
// a cycle. The governor (window 125) and the mode switch (cycle 2000) land
// on a common cycle, and the run checks that simulator events land on
// governor cycles too; a governor sample moved before or after a same-cycle
// access completion changes the latency it reads, hence its decisions and
// the digest.
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
	if err := sys.SetGovernor(Governor{Core: 0, Window: 125, Budget: 100}); err != nil {
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

	hist := sys.GovernorHistory()
	shared, escalated := 0, 0
	for _, d := range hist {
		if simCycles[d.At] {
			shared++
		}
		if d.Escalated {
			escalated++
		}
	}
	if shared == 0 || escalated == 0 || run.ModeSwitches < 2 {
		t.Fatalf("run does not exercise the interleaving: %d decisions, %d shared cycles, %d escalations, %d switches",
			len(hist), shared, escalated, run.ModeSwitches)
	}

	h := sha256.New()
	fmt.Fprintf(h, "%+v\n%+v\n", hist, *run)
	if got := hex.EncodeToString(h.Sum(nil)); got != interleaveDigest {
		t.Fatalf("observed-run digest = %s, want %s", got, interleaveDigest)
	}
}
