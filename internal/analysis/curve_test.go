package analysis

import (
	"testing"

	"cohort/internal/config"
	"cohort/internal/trace"
)

// TestHitCurveDifferential is the curve's bit-identity proof at unit level:
// across geometries × streams × per-miss costs, the curve must answer every
// θ — segment starts, boundary neighbors, and a dense sweep of interior
// points — exactly like the scalar GuaranteedHits.
func TestHitCurveDifferential(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50, DRAM: 100}
	for _, geom := range batchGeoms {
		for _, name := range []string{"fft", "water"} {
			for _, seed := range []uint64{1, 42, 7777} {
				s := batchStream(name, seed, t)
				for _, wcl := range []int64{lat.SlotWidth(), 1, 977} {
					hc := NewHitCurve(s, geom, lat, wcl)
					if !hc.Complete() {
						t.Fatalf("geom %+v %s/%d wcl %d: curve incomplete at %d segments", geom, name, seed, wcl, hc.Segments())
					}
					check := func(th config.Timer) {
						t.Helper()
						gotH, gotM := hc.Eval(th)
						wantH, wantM := GuaranteedHits(s, geom, lat, th, wcl)
						if gotH != wantH || gotM != wantM {
							t.Fatalf("geom %+v %s/%d wcl %d θ=%v: curve (%d,%d) != scalar (%d,%d)",
								geom, name, seed, wcl, th, gotH, gotM, wantH, wantM)
						}
					}
					// Every boundary and its neighbors, plus the domain edges
					// and the untimed classes.
					for _, start := range hc.starts {
						check(start)
						if start > 1 {
							check(start - 1)
						}
						if start < config.TimerMax {
							check(start + 1)
						}
					}
					for _, th := range batchThetas {
						check(th)
					}
					// Dense interior sweep.
					for th := config.Timer(1); th <= 4096; th += 13 {
						check(th)
					}
				}
			}
		}
	}
}

// TestHitCurveSaturationTimer proves θ_is read off the curve is bit-identical
// to the scalar sweep — the probe sequence is shared, so the smallest
// saturating timer and the saturation count must both match.
func TestHitCurveSaturationTimer(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50, DRAM: 100}
	for _, geom := range batchGeoms {
		for _, name := range []string{"fft", "water"} {
			for _, seed := range []uint64{1, 42, 7777} {
				s := batchStream(name, seed, t)
				hc := NewIsolationHitCurve(s, geom, lat)
				gotTh, gotHits := hc.SaturationTimer()
				wantTh, wantHits := SaturationTimer(s, geom, lat)
				if gotTh != wantTh || gotHits != wantHits {
					t.Fatalf("geom %+v %s/%d: curve sweep (θ=%v, hits=%d) != scalar (θ=%v, hits=%d)",
						geom, name, seed, gotTh, gotHits, wantTh, wantHits)
				}
			}
		}
	}
}

// TestHitCurveIncompleteFallback forces the sweep cap and proves the
// incomplete path stays exact: Lookup refuses θ at or beyond the frontier,
// and Eval transparently falls back to the scalar analysis there.
func TestHitCurveIncompleteFallback(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	geom := batchGeoms[2] // tiny cache: heavy eviction, many regimes
	s := batchStream("fft", 42, t)

	full := NewIsolationHitCurve(s, geom, lat)
	if full.Segments() < 4 {
		t.Skipf("stream yields only %d segments; need ≥4 to cap meaningfully", full.Segments())
	}
	defer func(old int) { curveMaxSweeps = old }(curveMaxSweeps)
	curveMaxSweeps = 3
	hc := NewIsolationHitCurve(s, geom, lat)
	if hc.Complete() {
		t.Fatal("capped sweep reported a complete curve")
	}
	frontier := hc.TailStart()
	if frontier <= 1 {
		t.Fatalf("frontier %v not past the first segment", frontier)
	}
	if _, _, ok := hc.Lookup(frontier); ok {
		t.Fatal("Lookup answered at the sweep frontier")
	}
	if _, _, ok := hc.Lookup(config.TimerMax); ok {
		t.Fatal("Lookup answered beyond the sweep frontier")
	}
	if _, _, ok := hc.Lookup(frontier - 1); !ok {
		t.Fatal("Lookup refused a covered θ below the frontier")
	}
	for _, th := range []config.Timer{1, frontier - 1, frontier, frontier + 1, 4096, config.TimerMax, config.TimerMSI, config.TimerNoCache} {
		gotH, gotM := hc.Eval(th)
		wantH, wantM := IsolationHits(s, geom, lat, th)
		if gotH != wantH || gotM != wantM {
			t.Fatalf("θ=%v: incomplete-curve Eval (%d,%d) != scalar (%d,%d)", th, gotH, gotM, wantH, wantM)
		}
	}
}

// TestHitCurveVerifyFailsClosed corrupts a constructed curve and proves the
// GuaranteedHits-backed verification panics — the construction check cannot
// silently accept a wrong segment.
func TestHitCurveVerifyFailsClosed(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	geom := batchGeoms[0]
	s := batchStream("fft", 1, t)
	hc := NewIsolationHitCurve(s, geom, lat)
	if hc.Segments() == 0 {
		t.Fatal("no segments to corrupt")
	}
	hc.hits[len(hc.hits)-1]++
	defer func() {
		if recover() == nil {
			t.Error("verification accepted a corrupted segment")
		}
	}()
	hc.verify()
}

// TestHitCurveRefusesFaultyCompile proves construction is certified by code
// that does not share its compile step: with one resident bit dropped at
// compile time, every sweep runs on a wrong replay, and verification against
// GuaranteedHits must refuse the curve.
func TestHitCurveRefusesFaultyCompile(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	s := batchStream("fft", 1, t)
	TestHooks.CompileDropResident = true
	defer func() { TestHooks.CompileDropResident = false }()
	defer func() {
		if recover() == nil {
			t.Error("hit curve built on a faulty compile passed verification")
		}
	}()
	NewIsolationHitCurve(s, batchGeoms[0], lat)
}

// TestHitCurveBreakpointSkewHook proves the seeded-fault hook works as the
// fail-closed probe: construction verification still passes (the skew is
// applied after it), but a query at a true breakpoint now returns the
// previous segment's split — a divergence the differential suites must
// catch.
func TestHitCurveBreakpointSkewHook(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	geom := batchGeoms[2]
	s := batchStream("fft", 42, t)
	clean := NewIsolationHitCurve(s, geom, lat)
	if clean.Segments() < 2 {
		t.Skipf("stream yields only %d segments; need ≥2 for a boundary", clean.Segments())
	}

	TestHooks.CurveBreakpointSkew = 1
	defer func() { TestHooks.CurveBreakpointSkew = 0 }()
	skewed := NewIsolationHitCurve(s, geom, lat)

	diverged := false
	for _, start := range clean.starts[1:] {
		cH, cM := clean.Eval(start)
		sH, sM := skewed.Eval(start)
		if cH != sH || cM != sM {
			diverged = true
			wantH, wantM := IsolationHits(s, geom, lat, start)
			if cH != wantH || cM != wantM {
				t.Fatalf("clean curve wrong at θ=%v", start)
			}
			if sH == wantH && sM == wantM {
				t.Fatalf("skewed curve accidentally right at θ=%v", start)
			}
		}
	}
	if !diverged {
		t.Fatal("breakpoint skew produced no observable divergence")
	}
}

// TestHitCurveLookupAllocFree pins the hotpath contract at runtime: the
// steady-state query performs zero allocations.
func TestHitCurveLookupAllocFree(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	geom := batchGeoms[0]
	s := batchStream("fft", 21, t)
	hc := NewIsolationHitCurve(s, geom, lat)
	var sink int64
	allocs := testing.AllocsPerRun(100, func() {
		for th := config.Timer(1); th < 2048; th += 17 {
			h, m, _ := hc.Lookup(th)
			sink += h - m
		}
	})
	if allocs != 0 {
		t.Fatalf("Lookup allocated %.1f times per run (sink %d)", allocs, sink)
	}
}

// TestHitCurveEmptyStream pins the degenerate case: an empty stream yields a
// single all-zero segment and answers every θ.
func TestHitCurveEmptyStream(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	hc := NewHitCurve(trace.Stream{}, batchGeoms[0], lat, lat.SlotWidth())
	if !hc.Complete() || hc.Segments() != 1 {
		t.Fatalf("empty stream: complete=%v segments=%d", hc.Complete(), hc.Segments())
	}
	for _, th := range []config.Timer{config.TimerMSI, 1, config.TimerMax} {
		if h, m := hc.Eval(th); h != 0 || m != 0 {
			t.Fatalf("θ=%v: (%d,%d), want (0,0)", th, h, m)
		}
	}
}

// BenchmarkHitCurveBuild measures one-time construction cost (sweep +
// verification) for the benchmark stream.
func BenchmarkHitCurveBuild(b *testing.B) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	geom := batchGeoms[0]
	p, _ := trace.ProfileByName("fft")
	s := p.Scaled(0.01).Generate(2, 64, 21).Streams[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewIsolationHitCurve(s, geom, lat)
	}
}

// BenchmarkIsolationHitsCurve is the query-path twin of
// BenchmarkIsolationHitsScalar/Batch: the same stream and 16 timers
// answered from the prebuilt index.
func BenchmarkIsolationHitsCurve(b *testing.B) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	geom := batchGeoms[0]
	s := fig5aStream(b)
	thetas := benchThetas(16)
	hc := NewIsolationHitCurve(s, geom, lat)
	var sink int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, th := range thetas {
			h, m, _ := hc.Lookup(th)
			sink += h - m
		}
	}
	_ = sink
}
