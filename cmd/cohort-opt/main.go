// Command cohort-opt runs the requirement-aware timer optimizer (paper §V):
// a genetic algorithm searches timer vectors Θ, querying the in-isolation
// cache analysis for guaranteed hits, and minimizes the average worst-case
// memory latency per request subject to per-core WCML requirements.
//
// Usage:
//
//	cohort-opt -bench fft
//	cohort-opt -bench radix -timed 1,1,0,0 -gamma 0,2000000,0,0
//	cohort-opt -bench water -pop 64 -gens 80 -seed 7
package main

import (
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"

	"cohort"
	"cohort/internal/cliutil"
	"cohort/internal/experiments"
	"cohort/internal/obs"
	"cohort/internal/parallel"
)

func main() { cliutil.Main("cohort-opt", run) }

// run optimizes the configured workload's timers and writes the pick and
// its per-core bounds to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cohort-opt", flag.ContinueOnError)
	cu := cliutil.New("cohort-opt")
	cu.RegisterWork(fs)
	cu.RegisterObs(fs)
	cu.RegisterProfile(fs)
	cu.RegisterWorkload(fs)
	var (
		timed = fs.String("timed", "", "comma-separated 0/1 mask of GA-optimized cores (default: all)")
		gamma = fs.String("gamma", "", "comma-separated per-core WCML requirements Γ in cycles (0 = none)")
		pop   = fs.Int("pop", 32, "GA population size")
		gens  = fs.Int("gens", 40, "GA generations")
		gaSd  = fs.Uint64("ga-seed", 1, "GA random seed")
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	timedMask, err := cliutil.List("timed", *timed, cu.Cores, cliutil.Bit)
	if err != nil {
		return err
	}
	if timedMask == nil {
		timedMask = make([]bool, cu.Cores)
		for i := range timedMask {
			timedMask[i] = true
		}
	}
	gammas, err := cliutil.List("gamma", *gamma, cu.Cores, cliutil.Cycles)
	if err != nil {
		return err
	}

	clk := obs.Clock(obs.WallClock{})
	log, err := cu.Logger(os.Stderr, clk)
	if err != nil {
		return err
	}
	stopProfiles, err := cu.StartProfiles(log)
	if err != nil {
		return err
	}
	defer stopProfiles()

	tr, err := cu.Generate(64)
	if err != nil {
		return err
	}

	base := cohort.PaperDefaults(cu.Cores, 1)
	prob := &cohort.Problem{
		Lat:     base.Lat,
		L1:      base.L1,
		Streams: tr.Streams,
		Timed:   timedMask,
		Gamma:   gammas,
	}
	gc := cohort.DefaultGA(*gaSd)
	gc.Pop, gc.Generations = *pop, *gens
	gc.Workers = cu.Jobs
	gc.OracleCurve = cu.Curve
	gc.Surrogate = cu.Surrogate

	var man *obs.Manifest
	if cu.OutDir != "" {
		man = obs.NewManifest("cohort-opt", clk)
		man.Args = args
		gc.Metrics = obs.NewRegistry()
		gc.Recorder = obs.NewRecorder()
	}

	// Live observability: the GA publishes generation progress and memo/lane
	// counters to the tracker handle; the debug server pull-samples them.
	// None of it feeds the canonical result or manifest.
	tracker := obs.NewRunTracker(clk)
	rh := tracker.Register("cohort-opt", cu.Bench)
	gc.Progress = rh
	if cu.Listen != "" && gc.Metrics == nil {
		// Serve GA metrics even without -out-dir; Optimize publishes them
		// under Registry.Sync, so live scrapes are race-free.
		gc.Metrics = obs.NewRegistry()
	}
	srv, err := cu.StartServer(gc.Metrics, tracker, log)
	if err != nil {
		return err
	}
	defer srv.Close()

	res, err := cohort.Optimize(prob, gc)
	if err != nil {
		return err
	}
	rh.Finish()

	if man != nil {
		// The config key covers every parameter that determines the Result;
		// GAConfig.Key leaves out the result-neutral ones (Workers,
		// OracleCurve).
		fp := experiments.Fingerprint(tr)
		k := parallel.NewKey("cohort-opt/config")
		k.Str(fp).Int(cu.Cores)
		for _, b := range timedMask {
			k.Bool(b)
		}
		k.Int(len(gammas))
		for _, g := range gammas {
			k.Int64(g)
		}
		man.ConfigKey = hex.EncodeToString([]byte(gc.Key(k).Sum()))
		man.Traces = []obs.TraceRef{{Name: tr.Name, Fingerprint: fp}}
		man.Seed = int64(cu.Seed)
		man.Workers = parallel.DefaultWorkers(cu.Jobs)
		man.Curve = cu.Curve
		engine := res.Engine
		man.Engine = &engine
		man.Metrics = gc.Metrics.Snapshot()
		if err := cu.WriteRun(man, gc.Recorder, clk, log); err != nil {
			return err
		}
	}

	fmt.Fprintf(stdout, "workload %s: %d oracle evaluations, feasible %v\n",
		tr.Name, res.Evaluations, res.Eval.Feasible())
	if res.Engine.Jobs > 0 {
		fmt.Fprintf(stdout, "memo-cache: %s\n", res.Engine)
	}
	fmt.Fprintf(stdout, "objective (avg worst-case cycles per request, summed over timed cores): %.2f\n",
		res.Eval.Objective)
	g := 0
	for i, th := range res.Timers {
		line := fmt.Sprintf("  θ_%d = %v", i, th)
		if timedMask[i] {
			line += fmt.Sprintf("   (θ_is = %v)", res.ThetaIS[g])
			g++
		}
		fmt.Fprintln(stdout, line)
	}
	fmt.Fprintln(stdout, "per-core bounds at the chosen timers:")
	for _, b := range res.Eval.PerCore {
		fmt.Fprintf(stdout, "  core %d: WCL %d, guaranteed hits %d / misses %d, WCML bound %d\n",
			b.Core, b.WCL, b.MHit, b.MMiss, b.WCMLBound)
	}
	if len(res.BestHistory) > 0 {
		fmt.Fprintf(stdout, "best fitness: first generation %.2f → last %.2f\n",
			res.BestHistory[0], res.BestHistory[len(res.BestHistory)-1])
	}
	return nil
}
