package model

import (
	"bytes"
	"strings"
	"testing"

	"cohort/internal/config"
)

// TestSmokeExhaustiveClean is the headline property: every quiescent state
// of the smoke configuration reachable within two windows satisfies every
// protocol invariant, and the exploration is deterministic — two runs visit
// exactly the same state space.
func TestSmokeExhaustiveClean(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration in -short mode")
	}
	run := func() *Result {
		c, err := New(Smoke(2))
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Explore()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	res := run()
	if res.Violation != nil {
		t.Fatalf("violation in unmutated protocol: %s\n  script: %s", res.Violation.Err, Describe(res.Violation.Script))
	}
	if res.Truncated {
		t.Fatal("smoke exploration truncated; must be exhaustive")
	}
	if res.Depth != 2 {
		t.Fatalf("explored depth %d, want 2", res.Depth)
	}
	if res.States < 10 {
		t.Fatalf("implausibly few states: %d", res.States)
	}
	t.Logf("smoke: %d states, %d runs", res.States, res.Runs)

	res2 := run()
	if res2.States != res.States || res2.Runs != res.Runs {
		t.Fatalf("exploration not deterministic: %d states/%d runs vs %d/%d",
			res.States, res.Runs, res2.States, res2.Runs)
	}
}

// mutationCase pins each seeded fault to the invariant that must catch it.
var mutationCases = []struct {
	name string
	kind string
}{
	{"timer-release-skew", "timer-protection"},
	{"stale-sharer-bitmask", "swmr"},
	{"skip-msi-downgrade", "swmr"},
	{"lut-off-by-one", "mode-switch"},
}

// TestMutationsProduceCounterexamples proves the checker fails closed: each
// seeded protocol fault yields a violation whose minimized counterexample
// replays — through a checker rebuilt from the serialized script alone — to
// the same violation kind.
func TestMutationsProduceCounterexamples(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration in -short mode")
	}
	for _, tc := range mutationCases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if err := ApplyMutation(tc.name); err != nil {
				t.Fatal(err)
			}
			defer ClearMutations()
			c, err := New(Smoke(2))
			if err != nil {
				t.Fatal(err)
			}
			res, err := c.Explore()
			if err != nil {
				t.Fatal(err)
			}
			if res.Violation == nil {
				t.Fatalf("mutation %s not caught in %d runs", tc.name, res.Runs)
			}
			v := res.Violation
			if v.Kind != tc.kind {
				t.Fatalf("mutation %s caught as %q (%s), want kind %q", tc.name, v.Kind, v.Err, tc.kind)
			}
			if v.Minimized == nil {
				t.Fatal("violation has no minimized counterexample")
			}
			if len(v.Minimized.Windows) > 2 {
				t.Fatalf("minimized counterexample still has %d windows: %s", len(v.Minimized.Windows), Describe(v.Minimized))
			}
			t.Logf("%s: %s → %s", tc.name, v.Kind, Describe(v.Minimized))

			// The serialized script alone must reproduce in the simulator.
			var buf bytes.Buffer
			if err := WriteScript(&buf, c.Sys(), c.Lines(), v.Minimized); err != nil {
				t.Fatal(err)
			}
			sys, lines, script, err := ParseScript(&buf)
			if err != nil {
				t.Fatal(err)
			}
			rc, err := New(Config{Sys: sys, Lines: lines, Pairs: true})
			if err != nil {
				t.Fatal(err)
			}
			out, err := rc.Replay(script)
			if err != nil {
				t.Fatal(err)
			}
			if out.Violation == nil || out.Violation.Kind != tc.kind {
				t.Fatalf("round-tripped counterexample does not reproduce %s: %+v", tc.kind, out.Violation)
			}

			// And it must render as a Perfetto trace.
			var chrome bytes.Buffer
			if _, err := rc.ReplayChrome(script, &chrome); err != nil {
				t.Fatal(err)
			}
			if !strings.Contains(chrome.String(), "traceEvents") {
				t.Fatalf("chrome render missing traceEvents: %.100s", chrome.String())
			}
		})
	}
}

// TestCleanProtocolHasNoShallowViolation guards the mutation tests'
// significance: with no mutation armed, the same exploration finds nothing,
// so the counterexamples above are attributable to the seeded faults.
func TestCleanProtocolHasNoShallowViolation(t *testing.T) {
	ClearMutations()
	c, err := New(Smoke(1))
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Explore()
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation != nil {
		t.Fatalf("clean protocol violated: %s", res.Violation.Err)
	}
}

// TestSymmetryReduction checks that folding identically-configured cores
// shrinks the state count without changing the verdict, and that it leaves
// heterogeneous cores alone.
func TestSymmetryReduction(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration in -short mode")
	}
	base := config.PaperDefaults(2, 1) // identical MSI cores: full swap symmetry
	mk := func(sym bool) *Result {
		c, err := New(Config{Sys: base, Lines: []uint64{0x1000}, Depth: 1, Pairs: true, Symmetry: sym})
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Explore()
		if err != nil {
			t.Fatal(err)
		}
		if res.Violation != nil {
			t.Fatalf("violation: %s", res.Violation.Err)
		}
		return res
	}
	on, off := mk(true), mk(false)
	if on.States >= off.States {
		t.Fatalf("symmetry did not reduce states: %d (on) vs %d (off)", on.States, off.States)
	}
	// Heterogeneous cores form singleton classes: symmetry must be a no-op.
	hc, err := New(Smoke(1))
	if err != nil {
		t.Fatal(err)
	}
	if len(hc.perms) != 1 {
		t.Fatalf("heterogeneous smoke config got %d symmetry perms, want identity only", len(hc.perms))
	}
}

// TestVisitedSpill forces the visited set onto disk and checks the state
// count is unchanged — spilling is an implementation detail, not a semantic.
func TestVisitedSpill(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive exploration in -short mode")
	}
	run := func(threshold int) *Result {
		cfg := Smoke(1)
		cfg.SpillThreshold = threshold
		cfg.SpillDir = t.TempDir()
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		res, err := c.Explore()
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	big, small := run(1<<20), run(4)
	if small.Spills == 0 {
		t.Fatal("threshold 4 produced no spills")
	}
	if big.States != small.States || big.Runs != small.Runs {
		t.Fatalf("spilling changed exploration: %d/%d vs %d/%d states/runs",
			big.States, big.Runs, small.States, small.Runs)
	}
}

func TestVisitedSetSemantics(t *testing.T) {
	v, err := newVisited(3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer v.Close()
	keys := make([]canonKey, 10)
	for i := range keys {
		keys[i][0] = byte(i * 7)
		keys[i][15] = byte(i)
	}
	for i, k := range keys {
		fresh, err := v.Add(k)
		if err != nil {
			t.Fatal(err)
		}
		if !fresh {
			t.Fatalf("key %d reported as duplicate on first insert", i)
		}
	}
	if v.spills == 0 {
		t.Fatal("no spill at threshold 3 with 10 keys")
	}
	for i, k := range keys {
		fresh, err := v.Add(k)
		if err != nil {
			t.Fatal(err)
		}
		if fresh {
			t.Fatalf("key %d reported fresh on second insert (spilled lookup broken)", i)
		}
	}
}

func TestScriptCodecRoundTrip(t *testing.T) {
	c, err := New(Smoke(2))
	if err != nil {
		t.Fatal(err)
	}
	s := c.EmptyScript()
	s.Windows = []Window{
		{Gap: 3, Cmds: []Command{{Core: 0, Line: 0, Write: true}}},
		{Gap: 0, Cmds: []Command{{Switch: true, Mode: 2}, {Core: 1, Line: 0, Offset: 5}}},
	}
	var buf bytes.Buffer
	if err := WriteScript(&buf, c.Sys(), c.Lines(), s); err != nil {
		t.Fatal(err)
	}
	sys, lines, got, err := ParseScript(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, buf.String())
	}
	if sys.N() != 2 || len(lines) != 1 || lines[0] != 0x1000 {
		t.Fatalf("config/lines mangled: n=%d lines=%v", sys.N(), lines)
	}
	if got.Stride != s.Stride || len(got.Windows) != 2 {
		t.Fatalf("script mangled: %+v", got)
	}
	w := got.Windows[1]
	if !w.Cmds[0].Switch || w.Cmds[0].Mode != 2 || w.Cmds[1].Core != 1 || w.Cmds[1].Offset != 5 {
		t.Fatalf("window 1 mangled: %+v", w)
	}
	if got.Windows[0].Cmds[0].Write != true || got.Windows[0].Gap != 3 {
		t.Fatalf("window 0 mangled: %+v", got.Windows[0])
	}
}

func TestScheduleRejectsSameCoreRace(t *testing.T) {
	s := &Script{Stride: 1000, Windows: []Window{
		{Cmds: []Command{{Core: 0}, {Core: 0, Write: true, Offset: 1}}},
	}}
	if _, err := scheduleFor(s); err == nil {
		t.Fatal("same-core race window accepted; static schedule would be unsound")
	}
}

func TestReplayDetectsQuiescentCleanRun(t *testing.T) {
	c, err := New(Smoke(1))
	if err != nil {
		t.Fatal(err)
	}
	s := c.EmptyScript()
	s.Windows = []Window{{Gap: 1, Cmds: []Command{{Core: 0, Line: 0, Write: true}}}}
	out, err := c.Replay(s)
	if err != nil {
		t.Fatal(err)
	}
	if out.Violation != nil {
		t.Fatalf("clean single-write script flagged: %+v", out.Violation)
	}
	if out.Run == nil || out.Run.Cycles == 0 {
		t.Fatal("replay returned no measurements")
	}
}
