package analysis

import (
	"fmt"
	"testing"

	"cohort/internal/config"
	"cohort/internal/trace"
)

// batchFuzzSeeds are FuzzBatchVsScalar's built-in seeds (the committed
// corpus under testdata/fuzz adds more).
var batchFuzzSeeds = [][]byte{
	{0, 3, 5, 0, 200, 17, 1, 2, 3, 4, 5, 6, 7, 8, 9},
	{1, 1, 255, 10, 20, 30, 10, 20, 30, 10, 20, 31},
	{2, 8, 0, 1, 2, 3, 4, 5, 6, 7, 100, 3, 9, 100, 2, 0, 100, 1, 255},
	{0, 2, 9, 9, 64, 0, 0, 64, 1, 0, 64, 0, 0},
}

// decodeFuzzInput is the dense input encoding both differential fuzzers
// share, so mutation exercises every branch: geometry and grid width from
// the header, timers mapped across all classes (MSI, no-cache, small, huge),
// then three bytes per access (address byte, kind/alias byte, gap byte).
// ok is false when the input is too short to name a grid.
func decodeFuzzInput(data []byte) (geom config.CacheGeometry, thetas []config.Timer, s trace.Stream, ok bool) {
	if len(data) < 2 {
		return geom, nil, nil, false
	}
	geom = batchGeoms[int(data[0])%len(batchGeoms)]
	width := int(data[1])%8 + 1
	if len(data) < 2+width {
		return geom, nil, nil, false
	}
	thetas = make([]config.Timer, width)
	for i := 0; i < width; i++ {
		// Map a byte across the timer classes: −1, 0, 1..252, and the max.
		switch v := data[2+i]; {
		case v == 255:
			thetas[i] = config.TimerMax
		case v == 254:
			thetas[i] = config.TimerMSI
		case v == 253:
			thetas[i] = config.TimerNoCache
		default:
			thetas[i] = config.Timer(v)
		}
	}
	for p := 2 + width; p+2 < len(data) && len(s) < 512; p += 3 {
		k := trace.Read
		if data[p+1]&1 == 1 {
			k = trace.Write
		}
		s = append(s, trace.Access{
			// Spread addresses over several sets and force aliasing.
			Addr: uint64(data[p])*64 + uint64(data[p+1]&0xf0)*4096,
			Kind: k,
			Gap:  int64(data[p+2]),
		})
	}
	return geom, thetas, s, true
}

// batchFuzzMismatch runs one fuzz input through the compiled kernel and
// GuaranteedHits and describes the first column whose (hits, misses)
// fingerprint differs, or "" when all agree. The batch runs twice on one
// Scratch, so state leaking between calls is reported too.
func batchFuzzMismatch(data []byte) string {
	geom, thetas, s, ok := decodeFuzzInput(data)
	if !ok {
		return ""
	}
	lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
	wcl := lat.SlotWidth()
	cs := Compile(s, geom)
	sc := new(Scratch)
	hits := make([]int64, len(thetas))
	misses := make([]int64, len(thetas))
	for pass := 0; pass < 2; pass++ {
		cs.GuaranteedHitsBatch(sc, lat, thetas, wcl, hits, misses)
		for c, th := range thetas {
			wantH, wantM := GuaranteedHits(s, geom, lat, th, wcl)
			if hits[c] != wantH || misses[c] != wantM {
				return fmt.Sprintf("pass %d col %d θ=%v: batch fingerprint (%d,%d) != scalar (%d,%d)",
					pass, c, th, hits[c], misses[c], wantH, wantM)
			}
		}
	}
	return ""
}

// FuzzBatchVsScalar feeds a random trace prefix and a random timer batch
// through the compiled kernel and the scalar reference and asserts
// identical per-column (hits, misses) fingerprints.
//
//	go test -fuzz FuzzBatchVsScalar ./internal/analysis
func FuzzBatchVsScalar(f *testing.F) {
	for _, seed := range batchFuzzSeeds {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if msg := batchFuzzMismatch(data); msg != "" {
			t.Fatal(msg)
		}
	})
}

// TestBatchFuzzFailsClosed proves FuzzBatchVsScalar's check can fail: with
// one resident bit dropped at compile time, some built-in seed must report
// a mismatch.
func TestBatchFuzzFailsClosed(t *testing.T) {
	TestHooks.CompileDropResident = true
	defer func() { TestHooks.CompileDropResident = false }()
	for _, seed := range batchFuzzSeeds {
		if batchFuzzMismatch(seed) != "" {
			return
		}
	}
	t.Fatal("seeded compile fault not detected by any FuzzBatchVsScalar seed")
}
