package core

import (
	"errors"
	"strings"
	"testing"

	"cohort/internal/cache"
	"cohort/internal/config"
	"cohort/internal/invariant"
	"cohort/internal/trace"
)

// runChecked builds and runs a system with the invariant checker enabled and
// requires a clean completion with at least one sweep.
func runChecked(t *testing.T, cfg *config.System, tr *trace.Trace) *System {
	t.Helper()
	cfg.CheckInvariants = true
	sys, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(); err != nil {
		t.Fatalf("run with invariant checker: %v", err)
	}
	if sys.InvariantChecks() == 0 {
		t.Fatal("invariant checker enabled but never ran")
	}
	if err := sys.CheckCoherence(); err != nil {
		t.Fatalf("coherence: %v", err)
	}
	return sys
}

// TestInvariantCheckerMSI runs a plain-MSI contention workload under the
// checker: write ping-pong plus a reader, exercising downgrade, upgrade and
// invalidation paths.
func TestInvariantCheckerMSI(t *testing.T) {
	cfg := cfgN(3, config.TimerMSI, config.TimerMSI, config.TimerMSI)
	tr := mkTrace(
		trace.Stream{
			{Addr: lineA, Kind: trace.Write},
			{Addr: lineA, Kind: trace.Write, Gap: 300},
			{Addr: lineB, Kind: trace.Read, Gap: 10},
		},
		trace.Stream{
			{Addr: lineA, Kind: trace.Write, Gap: 20},
			{Addr: lineB, Kind: trace.Write, Gap: 200},
		},
		trace.Stream{
			{Addr: lineA, Kind: trace.Read, Gap: 40},
			{Addr: lineA, Kind: trace.Write, Gap: 500},
		},
	)
	runChecked(t, cfg, tr)
}

// TestInvariantCheckerTimed runs a timer-based workload (uniform θ) under
// the checker: the remote read and write must wait out the owner's epochs,
// driving the scheduled-release path the event-driven check validates.
func TestInvariantCheckerTimed(t *testing.T) {
	cfg := cfgN(3, 200, 200, 200)
	tr := mkTrace(
		trace.Stream{
			{Addr: lineA, Kind: trace.Write},
			{Addr: lineA, Kind: trace.Write, Gap: 900},
		},
		trace.Stream{{Addr: lineA, Kind: trace.Read, Gap: 60}},
		trace.Stream{{Addr: lineA, Kind: trace.Write, Gap: 120}},
	)
	runChecked(t, cfg, tr)
}

// TestInvariantCheckerHeterogeneous runs the paper's headline configuration —
// different timers per core (MSI, θ = 0, timed) — under the checker.
func TestInvariantCheckerHeterogeneous(t *testing.T) {
	cfg := cfgN(4, config.TimerMSI, 0, 150, 800)
	rng := trace.NewRNG(11)
	var streams []trace.Stream
	for c := 0; c < 4; c++ {
		var s trace.Stream
		for i := 0; i < 60; i++ {
			kind := trace.Read
			if rng.Intn(3) == 0 {
				kind = trace.Write
			}
			s = append(s, trace.Access{
				Addr: lineA + uint64(rng.Intn(4))*64,
				Kind: kind,
				Gap:  int64(rng.Intn(30)),
			})
		}
		streams = append(streams, s)
	}
	runChecked(t, cfg, mkTrace(streams...))
}

// TestMutationMSIDowngradeCaught seeds the classic stale-dirty-copy bug —
// releaseOwner keeps the MSI owner's Modified copy on a remote load — and
// asserts the checker fails closed at the exact cycle the mutation fires,
// with the violation naming the line, cycle and per-core states.
func TestMutationMSIDowngradeCaught(t *testing.T) {
	TestHooks.SkipMSIDowngrade = true
	t.Cleanup(func() { TestHooks.SkipMSIDowngrade = false })

	cfg := cfgN(2, config.TimerMSI, config.TimerMSI)
	cfg.CheckInvariants = true
	// Core 0 owns lineA in M at 54 (4-cycle broadcast fused with 50-cycle
	// data). Core 1's read broadcasts 60..64; the MSI owner releases at 64 —
	// the mutated release keeps the stale M copy, so the post-broadcast
	// sweep at cycle 64 must report it.
	tr := mkTrace(
		trace.Stream{{Addr: lineA, Kind: trace.Write}},
		trace.Stream{{Addr: lineA, Kind: trace.Read, Gap: 60}},
	)
	sys, err := New(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	_, err = sys.Run()
	if err == nil {
		t.Fatal("mutated MSI downgrade path ran clean; checker missed the stale M copy")
	}
	var verr *invariant.Error
	if !errors.As(err, &verr) {
		t.Fatalf("error is %T (%v), want *invariant.Error", err, err)
	}
	if verr.Kind != invariant.KindSWMR {
		t.Fatalf("kind = %s, want swmr (%v)", verr.Kind, verr)
	}
	if verr.Cycle != 64 {
		t.Fatalf("cycle = %d, want 64 (the release the mutation skipped): %v", verr.Cycle, verr)
	}
	wantLine := sys.cores[0].l1.LineAddr(lineA)
	if verr.Line != wantLine {
		t.Fatalf("line = %#x, want %#x: %v", verr.Line, wantLine, verr)
	}
	if verr.Core != 0 {
		t.Fatalf("core = %d, want 0 (the stale owner): %v", verr.Core, verr)
	}
	found := false
	for _, st := range verr.States {
		if st.Core == 0 && st.State == cache.Modified {
			found = true
		}
	}
	if !found {
		t.Fatalf("states %v missing core 0 in M", verr.States)
	}
}

// TestMutationTimerReleaseSkewCaught seeds a skew into the timed owner's
// release schedule (late and early variants) and asserts the event-driven
// check fails closed at the exact skewed cycle, naming the true expiry.
func TestMutationTimerReleaseSkewCaught(t *testing.T) {
	for _, tc := range []struct {
		name string
		skew int64
		side string
	}{
		{name: "late", skew: 7, side: "late"},
		{name: "early", skew: -7, side: "early"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			TestHooks.TimerReleaseSkew = tc.skew
			t.Cleanup(func() { TestHooks.TimerReleaseSkew = 0 })

			cfg := cfgN(2, 500, config.TimerMSI)
			cfg.CheckInvariants = true
			// Core 0 (θ = 500) owns lineA in M at 54 (OwnerFetch = 54).
			// Core 1's read broadcasts 60..64; the true release is the first
			// epoch expiry ≥ 64: 54 + 500 = 554. The skewed schedule fires
			// at 554 + skew, and nothing else runs in between, so the first
			// violation must land exactly there.
			tr := mkTrace(
				trace.Stream{{Addr: lineA, Kind: trace.Write}},
				trace.Stream{{Addr: lineA, Kind: trace.Read, Gap: 60}},
			)
			sys, err := New(cfg, tr)
			if err != nil {
				t.Fatal(err)
			}
			_, err = sys.Run()
			if err == nil {
				t.Fatal("skewed timer release ran clean; checker missed it")
			}
			var verr *invariant.Error
			if !errors.As(err, &verr) {
				t.Fatalf("error is %T (%v), want *invariant.Error", err, err)
			}
			if verr.Kind != invariant.KindTimerProtection {
				t.Fatalf("kind = %s, want timer-protection (%v)", verr.Kind, verr)
			}
			if want := int64(554 + tc.skew); verr.Cycle != want {
				t.Fatalf("cycle = %d, want %d (the skewed release): %v", verr.Cycle, want, verr)
			}
			wantLine := sys.cores[0].l1.LineAddr(lineA)
			if verr.Line != wantLine {
				t.Fatalf("line = %#x, want %#x: %v", verr.Line, wantLine, verr)
			}
			if verr.Core != 0 {
				t.Fatalf("core = %d, want 0 (the timed owner): %v", verr.Core, verr)
			}
			if !strings.Contains(verr.Detail, tc.side) || !strings.Contains(verr.Detail, "554") {
				t.Fatalf("detail %q does not name the %s release against expiry 554", verr.Detail, tc.side)
			}
		})
	}
}

// TestCheckCoherenceFailsClosed corrupts a finished run's state three ways
// and requires the post-run sweep to name each breach with its invariant
// kind; on the clean run it must return an untyped nil.
func TestCheckCoherenceFailsClosed(t *testing.T) {
	for _, tc := range []struct {
		name    string
		corrupt func(sys *System, line uint64)
		want    invariant.Kind
	}{
		{"value", func(sys *System, line uint64) { sys.cores[1].l1.Lookup(line).Version-- }, invariant.KindValueConsistency},
		{"swmr", func(sys *System, line uint64) { sys.cores[1].l1.Lookup(line).State = cache.Modified }, invariant.KindSWMR},
		{"inclusion", func(sys *System, line uint64) {
			arr := sys.LLC().Array()
			arr.Invalidate(arr.Lookup(line))
		}, invariant.KindInclusion},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// Core 0 writes lineA, core 1 reads it later: both end with a
			// Shared copy at version 1, resident in the non-perfect LLC.
			cfg := cfgN(2, config.TimerMSI, config.TimerMSI)
			cfg.PerfectLLC = false
			sys, err := New(cfg, mkTrace(
				trace.Stream{{Addr: lineA, Kind: trace.Write}},
				trace.Stream{{Addr: lineA, Kind: trace.Read, Gap: 300}},
			))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sys.Run(); err != nil {
				t.Fatal(err)
			}
			if err := sys.CheckCoherence(); err != nil {
				t.Fatalf("clean run: %v", err)
			}
			tc.corrupt(sys, sys.cores[1].l1.LineAddr(lineA))
			var ie *invariant.Error
			if err := sys.CheckCoherence(); !errors.As(err, &ie) || ie.Kind != tc.want {
				t.Fatalf("CheckCoherence = %v, want a %s violation", err, tc.want)
			}
		})
	}
}
