package experiments

import (
	"testing"
)

// The harness-level oracle contract: GAConfig.OracleCurve, like Workers, is
// excluded from every memo key, so a curve-enabled run renders identically
// to a curve-disabled run AND addresses the same cache entries.

// TestFig5OracleGridEquivalence renders Fig. 5 across the Jobs ×
// OracleCurve grid from a cold memo each time; every cell must render
// byte-identically and perform the same number of memo jobs. The full
// hit/miss split is compared on the serial cells only — with racing cells
// it is legitimately scheduling-dependent (see memo.go).
func TestFig5OracleGridEquivalence(t *testing.T) {
	render := func(jobs int, curve bool) (string, int64, int64, int64) {
		o := QuickOptions()
		o.Jobs, o.GA.Workers, o.GA.OracleCurve = jobs, jobs, curve
		ResetMemo()
		res, err := Fig5(o, "2cr-2ncr")
		if err != nil {
			t.Fatalf("jobs %d curve %v: %v", jobs, curve, err)
		}
		ms := MemoStats()
		return res.Render().String() + res.Summary(), ms.Jobs, ms.CacheHits, ms.CacheMisses
	}
	refOut, refJobs, refHits, refMisses := render(1, false)
	for _, jobs := range []int{1, 8} {
		for _, curve := range []bool{false, true} {
			out, j, h, m := render(jobs, curve)
			if out != refOut {
				t.Errorf("jobs %d curve %v: rendered output differs from the serial run", jobs, curve)
			}
			if j != refJobs {
				t.Errorf("jobs %d curve %v: memo jobs %d, want %d", jobs, curve, j, refJobs)
			}
			if jobs == 1 && (h != refHits || m != refMisses) {
				t.Errorf("serial curve %v: memo split (%d,%d), want (%d,%d)", curve, h, m, refHits, refMisses)
			}
		}
	}
}

// TestOptimizeMemoKeyCurveIndependent is the sharp form of the key
// property: a curve-enabled re-run in a warm process must be served
// entirely from the memo populated by a curve-disabled run. Any OracleCurve
// leakage into the optimizeTimers or runSystem keys would show up as a
// fresh cache miss.
func TestOptimizeMemoKeyCurveIndependent(t *testing.T) {
	o := QuickOptions()
	o.Jobs, o.GA.Workers = 1, 1
	o.GA.OracleCurve = false
	ResetMemo()
	cold, err := Fig5(o, "all-cr")
	if err != nil {
		t.Fatal(err)
	}
	after := MemoStats()
	o.GA.OracleCurve = true
	warm, err := Fig5(o, "all-cr")
	if err != nil {
		t.Fatal(err)
	}
	if got := MemoStats(); got.CacheMisses != after.CacheMisses {
		t.Fatalf("curve re-run computed %d fresh cells; OracleCurve leaked into a memo key",
			got.CacheMisses-after.CacheMisses)
	}
	if cold.Render().String() != warm.Render().String() {
		t.Fatal("memo-served curve run rendered differently")
	}
}
