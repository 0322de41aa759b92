package analysis

import (
	"testing"

	"cohort/internal/config"
)

// FuzzCurveVsScalar builds a hit curve over a random trace prefix and
// asserts it answers a fuzzer-chosen θ grid exactly like the scalar
// GuaranteedHits. The input encoding is FuzzBatchVsScalar's (decodeFuzzInput),
// so the same corpus shapes exercise both differential harnesses.
// On top of the fuzzed grid, every constructed segment boundary and its
// neighbors are checked: those are exactly the points a wrong sweep would
// misplace.
//
//	go test -fuzz FuzzCurveVsScalar ./internal/analysis
func FuzzCurveVsScalar(f *testing.F) {
	f.Add([]byte{0, 3, 5, 0, 200, 17, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{1, 1, 255, 10, 20, 30, 10, 20, 30, 10, 20, 31})
	f.Add([]byte{2, 8, 0, 1, 2, 3, 4, 5, 6, 7, 100, 3, 9, 100, 2, 0, 100, 1, 255})
	f.Add([]byte{0, 2, 9, 9, 64, 0, 0, 64, 1, 0, 64, 0, 0})
	f.Add([]byte{2, 4, 254, 253, 7, 255, 1, 1, 200, 1, 0, 3, 65, 1, 90, 1, 0, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		geom, thetas, s, ok := decodeFuzzInput(data)
		if !ok {
			return
		}
		lat := config.Latencies{Hit: 1, Req: 4, Data: 50}
		wcl := lat.SlotWidth()
		hc := NewHitCurve(s, geom, lat, wcl)
		check := func(th config.Timer) {
			t.Helper()
			gotH, gotM := hc.Eval(th)
			wantH, wantM := GuaranteedHits(s, geom, lat, th, wcl)
			if gotH != wantH || gotM != wantM {
				t.Fatalf("θ=%v: curve (%d,%d) != scalar (%d,%d)", th, gotH, gotM, wantH, wantM)
			}
		}
		for _, th := range thetas {
			check(th)
		}
		for _, start := range hc.starts {
			check(start)
			if start > 1 {
				check(start - 1)
			}
			if start < config.TimerMax {
				check(start + 1)
			}
		}
		check(config.TimerMax)
	})
}
