package analysis

import (
	"fmt"
	"testing"

	"cohort/internal/config"
	"cohort/internal/trace"
)

// batchGeoms spans the geometries the batch kernel must reproduce exactly:
// the paper's direct-mapped L1, a set-associative variant (exercising LRU
// victim selection and way-order tie-breaks), and a tiny cache that forces
// heavy eviction traffic.
var batchGeoms = []config.CacheGeometry{
	{SizeBytes: 16 * 1024, LineBytes: 64, Ways: 1},
	{SizeBytes: 8 * 1024, LineBytes: 64, Ways: 4},
	{SizeBytes: 512, LineBytes: 64, Ways: 2},
}

// batchThetas covers every timer class: MSI (−1), no-cache (0), tiny,
// moderate, huge, and the architectural maximum — plus duplicates, which a
// batched kernel must keep independent per column.
var batchThetas = []config.Timer{config.TimerMSI, config.TimerNoCache, 1, 3, 57, 400, 5000, config.TimerMax, 57}

// batchLanes are the column counts the differential runs: one and two
// columns (1-lane passes), three (a padded 4-lane pass), four, five (a
// 4-lane pass plus a 1-lane remainder) and seventeen (the saturation grid's
// width).
var batchLanes = []int{1, 2, 3, 4, 5, 17}

func batchStream(name string, seed uint64, t testing.TB) trace.Stream {
	p, err := trace.ProfileByName(name)
	if err != nil {
		t.Fatal(err)
	}
	tr := p.Scaled(0.01).Generate(2, 64, seed)
	return tr.Streams[0]
}

// zeroGaps returns a copy of s with every gap zero: back-to-back accesses,
// so window tests land exactly on the fill time plus the miss cost.
func zeroGaps(s trace.Stream) trace.Stream {
	out := append(trace.Stream(nil), s...)
	for i := range out {
		out[i].Gap = 0
	}
	return out
}

// batchDifferential runs the compiled kernel against GuaranteedHits over
// every geometry × stream × lane count × WCL and describes the first column
// that differs ("" when every column agrees). The column sets cycle both the
// full timer list (untimed columns included) and its timed part, so every
// lane count reaches the kernel at full width. The WCLs are the isolation
// slot, the smallest legal value, an odd one, and the largest Eq. 1 value a
// four-core platform builds (every co-runner at TimerMax).
func batchDifferential(t *testing.T) string {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50, DRAM: 100}
	maxTimers := []config.Timer{config.TimerMax, config.TimerMax, config.TimerMax, config.TimerMax}
	wcls := []int64{lat.SlotWidth(), 1, 977, WCLCoHoRT(lat, maxTimers, 0)}
	var timed []config.Timer
	for _, th := range batchThetas {
		if th.Timed() {
			timed = append(timed, th)
		}
	}
	sc := new(Scratch)
	for _, geom := range batchGeoms {
		for _, seed := range []uint64{1, 42, 7777} {
			base := batchStream("fft", seed, t)
			for _, s := range []trace.Stream{base, zeroGaps(base)} {
				cs := Compile(s, geom)
				for _, lanes := range batchLanes {
					for _, pool := range [][]config.Timer{batchThetas, timed} {
						thetas := make([]config.Timer, lanes)
						for i := range thetas {
							thetas[i] = pool[i%len(pool)]
						}
						for _, wcl := range wcls {
							hits := make([]int64, lanes)
							misses := make([]int64, lanes)
							cs.GuaranteedHitsBatch(sc, lat, thetas, wcl, hits, misses)
							for c, th := range thetas {
								wantH, wantM := GuaranteedHits(s, geom, lat, th, wcl)
								if hits[c] != wantH || misses[c] != wantM {
									return fmt.Sprintf("geom %+v seed %d lanes %d wcl %d col %d θ=%v: batch (%d,%d) != scalar (%d,%d)",
										geom, seed, lanes, wcl, c, th, hits[c], misses[c], wantH, wantM)
								}
							}
						}
					}
				}
			}
		}
	}
	return ""
}

// TestBatchGuaranteedHitsDifferential is the bit-identity proof at unit
// level: each column of the compiled kernel must equal the scalar
// GuaranteedHits for that column's timer.
func TestBatchGuaranteedHitsDifferential(t *testing.T) {
	if msg := batchDifferential(t); msg != "" {
		t.Fatal(msg)
	}
}

// TestBatchDifferentialFailsClosed proves the differential cannot pass
// vacuously: with one resident bit dropped at compile time it must report a
// mismatch.
func TestBatchDifferentialFailsClosed(t *testing.T) {
	TestHooks.CompileDropResident = true
	defer func() { TestHooks.CompileDropResident = false }()
	if batchDifferential(t) == "" {
		t.Fatal("seeded compile fault not detected by the batch differential")
	}
}

// TestBatchAnalyzerReuse proves a Scratch carries nothing between calls: the
// same batch evaluated after unrelated batches (another stream, another
// geometry, other widths) must reproduce its first-run results exactly.
func TestBatchAnalyzerReuse(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	sc := new(Scratch)
	c1 := Compile(batchStream("fft", 1, t), batchGeoms[2])
	thetas := []config.Timer{1, 33, 900, config.TimerMSI, 4, 5000}
	run := func() ([]int64, []int64) {
		hits := make([]int64, len(thetas))
		misses := make([]int64, len(thetas))
		c1.IsolationHitsBatch(sc, lat, thetas, hits, misses)
		return hits, misses
	}
	h1a, m1a := run()
	// Pollute with a wider batch over another stream and a larger geometry,
	// then re-run.
	wide := make([]config.Timer, 32)
	for i := range wide {
		wide[i] = config.Timer(i)
	}
	c2 := Compile(batchStream("water", 9, t), batchGeoms[0])
	c2.GuaranteedHitsBatch(sc, lat, wide, 7, make([]int64, 32), make([]int64, 32))
	h1b, m1b := run()
	for c := range thetas {
		if h1a[c] != h1b[c] || m1a[c] != m1b[c] {
			t.Fatalf("col %d: reuse changed result (%d,%d) -> (%d,%d)", c, h1a[c], m1a[c], h1b[c], m1b[c])
		}
	}
}

// TestBatchScratchNoRealloc pins the scratch contract: once a Scratch has
// served a geometry, later batches of any width on that geometry reuse its
// state and column list without allocating.
func TestBatchScratchNoRealloc(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	cs := Compile(batchStream("fft", 3, t), batchGeoms[0])
	thetas := make([]config.Timer, 16)
	for i := range thetas {
		thetas[i] = config.Timer(i + 1)
	}
	hits, misses := make([]int64, 16), make([]int64, 16)
	sc := new(Scratch)
	cs.IsolationHitsBatch(sc, lat, thetas, hits, misses)
	for _, width := range []int{1, 2, 3, 16} {
		allocs := testing.AllocsPerRun(5, func() {
			cs.IsolationHitsBatch(sc, lat, thetas[:width], hits[:width], misses[:width])
		})
		if allocs != 0 {
			t.Fatalf("width %d: %v allocations per batch on a warm Scratch", width, allocs)
		}
	}
	if len(sc.st) != 4*cs.slots {
		t.Fatalf("scratch holds %d words, want %d (slots × 4 lanes)", len(sc.st), 4*cs.slots)
	}
}

// TestBatchAnalyzerPanicsMatchScalar pins panic parity: a timed column with a
// non-positive WCL must panic exactly like GuaranteedHits; untimed columns
// alone must not.
func TestBatchAnalyzerPanicsMatchScalar(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	s := batchStream("fft", 1, t)
	cs := Compile(s, batchGeoms[0])

	func() {
		defer func() {
			if recover() == nil {
				t.Error("timed column with WCL 0 did not panic")
			}
		}()
		cs.GuaranteedHitsBatch(nil, lat, []config.Timer{5}, 0, make([]int64, 1), make([]int64, 1))
	}()

	// Untimed-only batches never consult the WCL (scalar early-returns).
	hits := make([]int64, 2)
	misses := make([]int64, 2)
	cs.GuaranteedHitsBatch(nil, lat, []config.Timer{config.TimerMSI, config.TimerNoCache}, 0, hits, misses)
	for c := range hits {
		if hits[c] != 0 || misses[c] != int64(len(s)) {
			t.Fatalf("untimed col %d: (%d,%d), want (0,%d)", c, hits[c], misses[c], len(s))
		}
	}

	func() {
		defer func() {
			if recover() == nil {
				t.Error("mismatched output lengths did not panic")
			}
		}()
		cs.GuaranteedHitsBatch(nil, lat, []config.Timer{5}, 1, nil, nil)
	}()

	for _, geom := range []config.CacheGeometry{
		{SizeBytes: 0, LineBytes: 64, Ways: 1},
		{SizeBytes: 1024, LineBytes: 48, Ways: 1},
		{SizeBytes: 3 * 64, LineBytes: 64, Ways: 1},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Compile accepted invalid geometry %+v", geom)
				}
			}()
			Compile(s, geom)
		}()
	}
}

// TestBatchInexactStreamsFallBack covers the queries the packed kernel cannot
// answer exactly — a gap too wide for the op's gap field, a negative gap,
// and a per-miss cost that could push the clock past the kernel's range —
// and proves the batch and curve fall back to GuaranteedHits for them.
func TestBatchInexactStreamsFallBack(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	geom := batchGeoms[2]
	base := batchStream("fft", 5, t)
	wide := append(trace.Stream(nil), base...)
	wide[len(wide)/2].Gap = 1 << 40
	negative := append(trace.Stream(nil), base...)
	negative[3].Gap = -2
	thetas := []config.Timer{1, 57, config.TimerMax, config.TimerMSI}
	for _, tc := range []struct {
		name string
		s    trace.Stream
		wcl  int64
	}{
		{"wide gap", wide, lat.SlotWidth()},
		{"negative gap", negative, lat.SlotWidth()},
		{"huge wcl", base, 1 << 59},
	} {
		cs := Compile(tc.s, geom)
		if cs.exact(lat.Hit, tc.wcl) {
			t.Fatalf("%s: kernel claims an exact answer", tc.name)
		}
		hits := make([]int64, len(thetas))
		misses := make([]int64, len(thetas))
		cs.GuaranteedHitsBatch(nil, lat, thetas, tc.wcl, hits, misses)
		hc := NewHitCurve(tc.s, geom, lat, tc.wcl)
		if hc.Complete() || hc.Segments() != 0 || hc.TailStart() != 1 {
			t.Fatalf("%s: curve complete=%v segments=%d tail=%d, want an empty incomplete curve",
				tc.name, hc.Complete(), hc.Segments(), hc.TailStart())
		}
		for c, th := range thetas {
			wantH, wantM := GuaranteedHits(tc.s, geom, lat, th, tc.wcl)
			if hits[c] != wantH || misses[c] != wantM {
				t.Fatalf("%s θ=%v: batch (%d,%d) != scalar (%d,%d)", tc.name, th, hits[c], misses[c], wantH, wantM)
			}
			if h, m := hc.Eval(th); h != wantH || m != wantM {
				t.Fatalf("%s θ=%v: curve (%d,%d) != scalar (%d,%d)", tc.name, th, h, m, wantH, wantM)
			}
		}
	}
}

// TestBatchSaturationTimerDifferential proves the batched saturation sweep
// reproduces the scalar sweep's result exactly, and that every sample it
// reports is a valid IsolationHits evaluation (usable as a memo seed).
func TestBatchSaturationTimerDifferential(t *testing.T) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50, DRAM: 100}
	sc := new(Scratch)
	for _, geom := range batchGeoms {
		for _, name := range []string{"fft", "water"} {
			for _, seed := range []uint64{1, 42, 7777} {
				s := batchStream(name, seed, t)
				wantTh, wantHits := SaturationTimer(s, geom, lat)
				gotTh, gotHits, samples := Compile(s, geom).SaturationTimer(sc, lat)
				if gotTh != wantTh || gotHits != wantHits {
					t.Fatalf("geom %+v %s/%d: batched sweep (θ=%v, hits=%d) != scalar (θ=%v, hits=%d)",
						geom, name, seed, gotTh, gotHits, wantTh, wantHits)
				}
				for _, smp := range samples {
					h, m := IsolationHits(s, geom, lat, smp.Theta)
					if smp.Hits != h || smp.Misses != m {
						t.Fatalf("geom %+v %s/%d θ=%v: sample (%d,%d) != IsolationHits (%d,%d)",
							geom, name, seed, smp.Theta, smp.Hits, smp.Misses, h, m)
					}
				}
			}
		}
	}
}

// fig5aStream is a stream at the fig5a benchmark's sizing (fft at scale
// 0.05, capped to 4000 accesses), the traffic the optimizer's oracle sees.
func fig5aStream(b *testing.B) trace.Stream {
	p, err := trace.ProfileByName("fft")
	if err != nil {
		b.Fatal(err)
	}
	p = p.Scaled(0.05)
	p.AccessesPerCore = min(p.AccessesPerCore, 4000)
	return p.Generate(4, 64, 21).Streams[0]
}

func benchThetas(n int) []config.Timer {
	out := make([]config.Timer, n)
	for i := range out {
		out[i] = config.Timer(1 + 37*i)
	}
	return out
}

// BenchmarkIsolationHitsScalar is the reference cost: GuaranteedHits once
// per timer, on the same stream and widths as BenchmarkIsolationHitsBatch.
func BenchmarkIsolationHitsScalar(b *testing.B) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	geom := batchGeoms[0]
	s := fig5aStream(b)
	thetas := benchThetas(16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, th := range thetas {
			IsolationHits(s, geom, lat, th)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s)*len(thetas)), "ns/col-access")
}

// BenchmarkIsolationHitsBatch times the compiled kernel at the widths the
// optimizer issues — one (bisection midpoints, lone fresh genes), four (one
// 4-lane pass) and sixteen (a full oracle unit) — on a fig5a-sized stream,
// reporting the cost per (access × column). Compilation is outside the loop:
// the evaluator compiles each stream once per run.
func BenchmarkIsolationHitsBatch(b *testing.B) {
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	s := fig5aStream(b)
	cs := Compile(s, batchGeoms[0])
	for _, width := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("w=%d", width), func(b *testing.B) {
			thetas := benchThetas(width)
			hits := make([]int64, width)
			misses := make([]int64, width)
			sc := new(Scratch)
			cs.IsolationHitsBatch(sc, lat, thetas, hits, misses) // size the scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cs.IsolationHitsBatch(sc, lat, thetas, hits, misses)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(s)*width), "ns/col-access")
		})
	}
}

// BenchmarkCompile times the θ-independent tag replay on the same stream.
func BenchmarkCompile(b *testing.B) {
	s := fig5aStream(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Compile(s, batchGeoms[0])
	}
}
