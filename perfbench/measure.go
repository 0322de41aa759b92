package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"runtime"
	"runtime/metrics"
	"sort"
	"syscall"
	"time"

	"cohort/internal/experiments"
	"cohort/internal/obs"
	"cohort/internal/opt"
)

// coldReset puts the process back into the state of a fresh cohort-bench
// process: no memoized runs or optimizations, no cached hit curves, and a
// collected heap.
func coldReset() {
	experiments.ResetMemo()
	opt.ResetCurveCache()
	runtime.GC()
}

// runnerWork is what one runner call did, seen from outside it: the
// live-progress counters the experiment primitives bump (as in
// cohort-bench) and the memos' own probe counters. After a cold reset both
// are a pure function of the workload and seed, so a reset that was
// skipped, or a cache that survived it, shows as a difference.
type runnerWork struct {
	Events, Cycles                      int64
	ProgressHits, ProgressMisses, Lanes int64
	MemoJobs, MemoHits, MemoMisses      int64
}

// runOnce runs the workload's runner and renders its output, with a live
// progress handle attached as cohort-bench attaches one.
func runOnce(w workload, o experiments.Options) (any, string, runnerWork, error) {
	tracker := obs.NewRunTracker(obs.WallClock{})
	h := tracker.Register("perfbench", w.name)
	prev := experiments.AttachProgress(h)
	res, err := w.run(o)
	var out string
	if err == nil {
		out = w.render(res)
	}
	experiments.AttachProgress(prev)
	st := tracker.Sample()[0]
	memo := experiments.MemoStats()
	return res, out, runnerWork{
		Events: st.Events, Cycles: st.Cycles,
		ProgressHits: st.MemoHits, ProgressMisses: st.MemoMisses, Lanes: st.Lanes,
		MemoJobs: memo.Jobs, MemoHits: memo.CacheHits, MemoMisses: memo.CacheMisses,
	}, err
}

// reference is what every iteration of one run must reproduce.
type reference struct {
	digest string
	work   runnerWork
	result any
}

func digest(out string) string {
	sum := sha256.Sum256([]byte(out))
	return hex.EncodeToString(sum[:])
}

// checkRunner compares one runner iteration with the reference.
func (r *reference) checkRunner(out string, work runnerWork) error {
	if d := digest(out); d != r.digest {
		return fmt.Errorf("output digest %s, want %s", d, r.digest)
	}
	if work != r.work {
		return fmt.Errorf("runner work %+v, want %+v (a cache survived the cold reset?)", work, r.work)
	}
	return nil
}

// checkComposition compares the layer-by-layer composition with the
// runner: the same structured result, the same rendered bytes, and the same
// simulated work as the runner's progress counters saw.
func (r *reference) checkComposition(res any, out string, lw layerWork) error {
	if !reflect.DeepEqual(res, r.result) {
		return fmt.Errorf("composition result differs from the runner's")
	}
	if d := digest(out); d != r.digest {
		return fmt.Errorf("composition output digest %s, want %s", d, r.digest)
	}
	if lw.SimAccesses != r.work.Events || lw.SimCycles != r.work.Cycles {
		return fmt.Errorf("composition simulated %d accesses over %d cycles, runner %d over %d",
			lw.SimAccesses, lw.SimCycles, r.work.Events, r.work.Cycles)
	}
	return nil
}

// iterStats are the end-to-end figures of one runner iteration.
type iterStats struct {
	wall, cpu, allocMB, gcCycles, retainedMB float64
}

// runtimeSample reads the process counters an iteration is measured by.
type runtimeSample struct {
	at                   time.Time
	cpu                  float64
	allocBytes, gcCycles uint64
	gcCPU                float64
}

var runtimeMetrics = []metrics.Sample{
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
	{Name: "/cpu/classes/gc/total:cpu-seconds"},
}

func sampleRuntime() runtimeSample {
	metrics.Read(runtimeMetrics)
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return runtimeSample{
		at:         time.Now(),
		cpu:        time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds(),
		allocBytes: runtimeMetrics[0].Value.Uint64(),
		gcCycles:   runtimeMetrics[1].Value.Uint64(),
		gcCPU:      runtimeMetrics[2].Value.Float64(),
	}
}

// liveHeapMB collects the heap and returns what stays live.
func liveHeapMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / 1e6
}

// iteration is one cold runner iteration, measured end to end.
type iteration struct {
	stats  iterStats
	before runtimeSample
	after  runtimeSample
	result any
	out    string
	work   runnerWork
	err    error
}

// runIteration resets with reset, then times one runner call. The live
// heap is read after the call and a forced collection, before the next
// reset drops the memos.
func runIteration(w workload, o experiments.Options, reset func()) iteration {
	reset()
	var it iteration
	it.before = sampleRuntime()
	it.result, it.out, it.work, it.err = runOnce(w, o)
	it.after = sampleRuntime()
	it.stats = iterStats{
		wall:       it.after.at.Sub(it.before.at).Seconds(),
		cpu:        it.after.cpu - it.before.cpu,
		allocMB:    float64(it.after.allocBytes-it.before.allocBytes) / 1e6,
		gcCycles:   float64(it.after.gcCycles - it.before.gcCycles),
		retainedMB: liveHeapMB(),
	}
	return it
}

// summary is a sample's median and quartiles, computed as Python's
// statistics.quantiles(values, n=4) computes them.
type summary struct {
	N      int       `json:"n"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	Values []float64 `json:"values"`
}

func summarize(values []float64) summary {
	s := summary{N: len(values), Values: values}
	if len(values) == 0 {
		return s
	}
	sorted := append([]float64(nil), values...)
	sort.Float64s(sorted)
	s.Median = median(sorted)
	if len(sorted) < 2 {
		s.Q1, s.Q3 = s.Median, s.Median
		return s
	}
	// The exclusive method: positions i·(n+1)/4, interpolated.
	m := len(sorted) + 1
	q := func(i int) float64 {
		j := min(max(i*m/4, 1), len(sorted)-1)
		delta := float64(i*m - j*4)
		return (sorted[j-1]*(4-delta) + sorted[j]*delta) / 4
	}
	s.Q1, s.Q3 = q(1), q(3)
	return s
}

// median of values, which need not be sorted.
func median(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	v := append([]float64(nil), values...)
	sort.Float64s(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}

// ratio is a/b, or 0 when b is 0, so a layer a workload does not use
// reports 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
