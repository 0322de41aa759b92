// Command cohort-bench regenerates the paper's evaluation artifacts: every
// sub-figure of Fig. 5 and Fig. 6, the mode-switch experiment of Fig. 7,
// Tables I and II, and the design-choice ablations.
//
// Usage:
//
//	cohort-bench -run all
//	cohort-bench -run fig5a,fig6a,fig7 -j 8
//	cohort-bench -run table2 -bench fft -scale 0.1
//	cohort-bench -run all -md > results.md
package main

import (
	"bytes"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"strings"

	"cohort/internal/cliutil"
	"cohort/internal/experiments"
	"cohort/internal/obs"
	"cohort/internal/parallel"
	"cohort/internal/stats"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, obs.WallClock{}); err != nil {
		cliutil.Fatal("cohort-bench", err)
	}
}

// run executes the selected experiments and writes their tables to stdout.
// Factored out of main so the golden-file tests drive the exact CLI path;
// clk is the injected wall clock (tests pass obs.ManualClock so manifests
// are byte-reproducible).
func run(args []string, stdout io.Writer, clk obs.Clock) error {
	fs := flag.NewFlagSet("cohort-bench", flag.ContinueOnError)
	cu := cliutil.New("cohort-bench")
	cu.RegisterWork(fs)
	cu.RegisterObs(fs)
	cu.RegisterProfile(fs)
	var (
		runList = fs.String("run", "all", "comma-separated experiments: "+strings.Join(experiments.Names(), ", ")+" or 'all'")
		scale   = fs.Float64("scale", 0.05, "access-count scale factor")
		cap     = fs.Int("cap", 4000, "cap on accesses per core after scaling (0 = none)")
		seed    = fs.Uint64("seed", 42, "trace generator seed")
		bench   = fs.String("bench", "fft", "benchmark for fig7/table2/scalability")
		benches = fs.String("benches", "", "comma-separated benchmark subset for fig5/fig6/ablations (default: all)")
		pop     = fs.Int("pop", 20, "GA population")
		gens    = fs.Int("gens", 16, "GA generations")
		md      = fs.Bool("md", false, "emit markdown tables")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	log, err := cu.Logger(os.Stderr, clk)
	if err != nil {
		return err
	}
	stopProfiles, err := cu.StartProfiles(log)
	if err != nil {
		return err
	}
	defer stopProfiles()

	o := experiments.DefaultOptions()
	o.Scale = *scale
	o.MaxAccessesPerCore = *cap
	o.Seed = *seed
	o.GA.Pop, o.GA.Generations = *pop, *gens
	o.Jobs = cu.Jobs
	o.GA.Workers = cu.Jobs
	// Like the worker count, the curve oracle changes only the cost of a
	// run, never its results — it is excluded from benchConfigKey so curve
	// and batched-memo runs of one configuration share a key and
	// cohort-report can diff them. The tier-2 surrogate does change results
	// and joins the key when enabled.
	o.GA.OracleCurve = cu.Curve
	o.GA.Surrogate = cu.Surrogate
	if *benches != "" {
		o.Benchmarks = strings.Split(*benches, ",")
	}

	if err := o.Validate(); err != nil {
		return err
	}
	// selected lists the chosen experiments in registry order, so
	// "-run fig6a,fig5a" and "-run fig5a,fig6a" share a config key.
	selected := experiments.All()
	if *runList != "all" {
		sel := map[string]bool{}
		for _, k := range strings.Split(*runList, ",") {
			f, err := experiments.Get(strings.TrimSpace(k))
			if err != nil {
				return err
			}
			sel[f.Name] = true
		}
		selected = slices.DeleteFunc(selected, func(f experiments.Figure) bool { return !sel[f.Name] })
	}

	var (
		man *obs.Manifest
		rec *obs.Recorder
	)
	if cu.OutDir != "" {
		man = obs.NewManifest("cohort-bench", clk)
		man.Args = args
		o.Metrics = obs.NewRegistry()
		rec = obs.NewRecorder()
		o.Recorder = rec
	}

	// Live observability: the tracker's handle feeds the pull-sampled /runs
	// and /metrics endpoints; the experiment harness bumps it through the
	// package-level progress hook. All of it is outside canonical output —
	// tables, manifests and fingerprints are byte-identical with or without
	// -listen.
	tracker := obs.NewRunTracker(clk)
	rh := tracker.Register("cohort-bench", *runList)
	rh.SetCellsTotal(int64(len(selected)))
	defer func() {
		rh.Finish()
		tracker.Unregister(rh)
	}()
	prev := experiments.AttachProgress(rh)
	defer experiments.AttachProgress(prev)
	if cu.Listen != "" && o.Metrics == nil {
		// Serve experiment metrics even without -out-dir; figure publishes go
		// through Registry.Sync, so live scrapes are race-free.
		o.Metrics = obs.NewRegistry()
	}
	srv, err := cu.StartServer(o.Metrics, tracker, log)
	if err != nil {
		return err
	}
	defer srv.Close()

	render := (*stats.Table).String
	if *md {
		render = (*stats.Table).Markdown
	}
	for _, f := range selected {
		out, err := f.Run(o, *bench)
		if err != nil {
			return err
		}
		for _, t := range out.Tables {
			fmt.Fprintln(stdout, render(t))
		}
		if out.Summary != "" {
			fmt.Fprintln(stdout, out.Summary)
			fmt.Fprintln(stdout)
		}
		if man != nil && out.Attribution != nil {
			man.Attribution = out.Attribution
		}
		rh.AddCellsDone(1)
	}
	engine := experiments.MemoStats()
	if man != nil {
		refs, err := experiments.TraceRefs(o)
		if err != nil {
			return err
		}
		man.ConfigKey = benchConfigKey(selected, *bench, &o)
		man.Traces = refs
		man.Seed = int64(*seed)
		man.Workers = parallel.DefaultWorkers(cu.Jobs)
		man.Curve = cu.Curve
		man.Engine = &engine
		man.Metrics = o.Metrics.Snapshot()
		man.Finish(clk)
		path, err := man.Write(cu.OutDir)
		if err != nil {
			return err
		}
		tracePath := strings.TrimSuffix(path, ".manifest.json") + ".trace.json"
		var chrome bytes.Buffer
		if err := rec.WriteChrome(&chrome); err != nil {
			return err
		}
		if err := os.WriteFile(tracePath, chrome.Bytes(), 0o644); err != nil {
			return err
		}
		log.Infof("cohort-bench: wrote %s and %s", path, tracePath)
	}
	return nil
}

// benchConfigKey fingerprints the effective experiment configuration —
// everything that determines the results, and nothing that doesn't: the
// worker count is deliberately excluded so -j 1 and -j 8 runs of the same
// configuration share a key and cohort-report can compare them.
func benchConfigKey(selected []experiments.Figure, bench string, o *experiments.Options) string {
	k := parallel.NewKey("cohort-bench/config")
	k.Int(len(selected))
	for _, f := range selected {
		k.Str(f.Name)
	}
	k.Str(bench)
	k.Int(o.NCores).Float64(o.Scale).Int(o.MaxAccessesPerCore).Uint64(o.Seed)
	k.Int(len(o.Benchmarks))
	for _, b := range o.Benchmarks {
		k.Str(b)
	}
	return hex.EncodeToString([]byte(o.GA.Key(k).Sum()))
}
