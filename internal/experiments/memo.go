package experiments

import (
	"encoding/json"
	"fmt"

	"cohort/internal/config"
	"cohort/internal/core"
	"cohort/internal/opt"
	"cohort/internal/parallel"
	"cohort/internal/stats"
	"cohort/internal/trace"
)

// The experiment suite re-runs the same cells across runners — Fig. 5 and
// Fig. 6 both simulate PCC on the same traces, every ablation re-simulates
// its baselines, and the GA re-optimizes the same (trace, criticality)
// problems — so the two expensive primitives, runSystem and optimizeTimers,
// are memoized process-wide behind content-addressed keys. Both are pure:
// the same configuration and trace content always produce the same result,
// so serving a cached pointer is observationally identical to recomputing
// (callers treat the results as read-only).
//
// The memo is probed by concurrently running cells, so while its totals are
// exact, the hit/miss split can differ run to run when two cells race to
// compute the same key. Rendered experiment output therefore never includes
// these counters; they are reported out-of-band via MemoStats.
//
// Both keys are built on the trace's content fingerprint, which the caller
// computes once where it generates the trace (see workload) — so separately
// generated traces with the same content share entries, and the memos hold
// results, never traces.
var (
	runMemo = parallel.NewCache[*stats.Run]()
	optMemo = parallel.NewCache[*opt.Result]()
)

// ResetMemo drops every memoized result. The serial-equivalence tests call
// it between runs so each compares from a cold cache.
func ResetMemo() {
	runMemo.Reset()
	optMemo.Reset()
}

// MemoStats reports the combined memo counters (simulations + optimizations).
func MemoStats() stats.EngineStats {
	r, o := runMemo.Stats(), optMemo.Stats()
	return stats.EngineStats{
		Jobs:        r.Jobs + o.Jobs,
		CacheHits:   r.CacheHits + o.CacheHits,
		CacheMisses: r.CacheMisses + o.CacheMisses,
	}
}

// fingerprint content-addresses a trace by digesting every access of every
// stream.
func fingerprint(tr *trace.Trace) string {
	k := parallel.NewKey("experiments/trace")
	k.Str(tr.Name)
	k.Int(len(tr.Streams))
	for _, s := range tr.Streams {
		k.Int(len(s))
		for _, a := range s {
			k.Uint64(a.Addr)
			k.Int64(int64(a.Kind))
			k.Int64(a.Gap)
		}
	}
	return k.Sum()
}

// optimizeTimers runs the GA for a scenario: critical cores get optimized
// timers, non-critical cores run MSI. Results are memoized on the trace
// content, the platform width and every result-affecting GA parameter —
// Workers and the exact curve oracle (OracleCurve) return byte-identical
// Results, so the cache key must not distinguish them.
func optimizeTimers(o *Options, w *workload, critical []bool) (*opt.Result, error) {
	k := parallel.NewKey("experiments/opt")
	k.Str(w.fp)
	k.Int(o.NCores)
	k.Int(len(critical))
	for _, c := range critical {
		k.Bool(c)
	}
	key := o.GA.Key(k).Sum()
	if r, ok := optMemo.Get(key); ok {
		progress().AddMemoHits(1)
		return r, nil
	}
	progress().AddMemoMisses(1)

	cfg := config.PaperDefaults(o.NCores, 1)
	prob := &opt.Problem{
		Lat:     cfg.Lat,
		L1:      cfg.L1,
		Streams: w.tr.Streams,
		Timed:   critical,
	}
	// Strip the deterministic observability hooks before the memoized call:
	// a cache hit skips Optimize entirely, so anything it published would
	// depend on memo state and racing cells. The harness publishes post-hoc
	// instead. The live-progress handle is attached, not stripped — it feeds
	// only the pull-sampled RunTracker, which is scheduling-dependent by
	// contract.
	ga := o.GA
	ga.Metrics, ga.Recorder = nil, nil
	ga.Progress = progress()
	r, err := opt.Optimize(prob, ga)
	if err != nil {
		return nil, err
	}
	optMemo.Put(key, r)
	return r, nil
}

// runSystem simulates one configuration on a workload and returns the
// measurements. Results are memoized on the configuration's JSON form plus
// the trace fingerprint; the returned *stats.Run is shared and must be
// treated as read-only.
func runSystem(cfg *config.System, w *workload) (*stats.Run, error) {
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		return nil, fmt.Errorf("experiments: fingerprinting config: %w", err)
	}
	key := parallel.NewKey("experiments/run").Bytes(cfgJSON).Str(w.fp).Sum()
	if run, ok := runMemo.Get(key); ok {
		progress().AddMemoHits(1)
		return run, nil
	}
	progress().AddMemoMisses(1)

	_, run, err := simulate(cfg, w, nil)
	if err != nil {
		return nil, err
	}
	runMemo.Put(key, run)
	return run, nil
}

// simulate is the unmemoized build → run → sweep behind every full-system
// run: it builds a system for cfg on the workload, lets prepare (when
// non-nil) schedule onto it, runs it, and fails if the post-run coherence
// sweep finds a violation. It returns the system for callers that read
// state the run leaves behind.
func simulate(cfg *config.System, w *workload, prepare func(*core.System) error) (*core.System, *stats.Run, error) {
	sys, err := core.New(cfg, w.tr)
	if err != nil {
		return nil, nil, err
	}
	// Thread the live-progress handle into the fresh simulation so the
	// tracker sees events/cycles advance while the run is in flight.
	if err := sys.SetProgress(progress()); err != nil {
		return nil, nil, err
	}
	if prepare != nil {
		if err := prepare(sys); err != nil {
			return nil, nil, err
		}
	}
	run, err := sys.Run()
	if err != nil {
		return nil, nil, err
	}
	if err := sys.CheckCoherence(); err != nil {
		return nil, nil, fmt.Errorf("experiments: coherence violated: %w", err)
	}
	return sys, run, nil
}
