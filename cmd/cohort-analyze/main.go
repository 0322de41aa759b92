// Command cohort-analyze runs the paper's timing analysis without any
// simulation: per-core WCL (Eq. 1) and WCML bounds (Eq. 2/3), the θ_is
// saturation sweep, a task-set schedulability check, and the hardware
// overhead bill. It is the fast design-space companion to cohort-sim.
//
// Usage:
//
//	cohort-analyze -bench fft -timers 300,20,20,-1
//	cohort-analyze -bench lu  -timers 100,100,-1,-1 -deadlines 200000,0,0,0
//	cohort-analyze -bench fft -timers 300,20,20,20 -sweep
package main

import (
	"flag"
	"fmt"
	"io"

	"cohort"
	"cohort/internal/cliutil"
)

func main() { cliutil.Main("cohort-analyze", run) }

// run analyzes the configured workload and writes the report to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cohort-analyze", flag.ContinueOnError)
	cu := cliutil.New("cohort-analyze")
	cu.RegisterWorkload(fs)
	var (
		timers    = fs.String("timers", "300,20,20,-1", "comma-separated per-core timers")
		sweep     = fs.Bool("sweep", false, "print the θ_is saturation sweep per core")
		deadlines = fs.String("deadlines", "", "comma-separated per-core task deadlines in cycles (0 = none) for a schedulability check")
		levels    = fs.Int("levels", 1, "criticality levels (for the hardware bill)")
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	tr, err := cu.Generate(64)
	if err != nil {
		return err
	}
	ths, err := cliutil.List("timers", *timers, cu.Cores, cliutil.Timer)
	if err != nil {
		return err
	}
	dls, err := cliutil.List("deadlines", *deadlines, cu.Cores, cliutil.Cycles)
	if err != nil {
		return err
	}
	cfg, err := cohort.NewCoHoRT(cu.Cores, *levels, ths)
	if err != nil {
		return err
	}

	bounds, err := cohort.Bounds(cfg, tr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "workload %s (Λ = %d per core), timers %v\n\n", tr.Name, tr.Lambda(0), ths)
	fmt.Fprintln(stdout, "per-core analysis (Eq. 1 / Eq. 2-3):")
	for _, b := range bounds {
		fmt.Fprintf(stdout, "  core %d (θ=%-8v): WCL %6d, guaranteed hits %5d / misses %5d, WCML bound %10d\n",
			b.Core, b.Theta, b.WCL, b.MHit, b.MMiss, b.WCMLBound)
	}

	if *sweep {
		base := cohort.PaperDefaults(cu.Cores, *levels)
		fmt.Fprintln(stdout, "\nθ_is saturation sweep:")
		for i, s := range tr.Streams {
			thIS, satHits := cohort.SaturationTimer(s, base.L1, base.Lat)
			fmt.Fprintf(stdout, "  core %d: θ_is = %5v (%d of %d accesses guaranteed at saturation)\n",
				i, thIS, satHits, len(s))
		}
	}

	if dls != nil {
		var tasks []cohort.Task
		for i, d := range dls {
			if d == 0 {
				d = 1 << 60 // unconstrained
			}
			tasks = append(tasks, cohort.Task{
				Name:        fmt.Sprintf("task%d", i),
				Core:        i,
				Criticality: 1,
				Deadline:    d,
			})
		}
		vs, err := cohort.Admission(tasks, bounds, 1, *levels)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, "\nschedulability:")
		for _, v := range vs {
			verdict := "OK"
			if !v.Schedulable() {
				verdict = "DEADLINE MISS POSSIBLE"
			}
			fmt.Fprintf(stdout, "  %s: WCET bound %d vs deadline %d — %s\n",
				v.Task.Name, v.WCET, v.Task.Deadline, verdict)
		}
		if cohort.SetSchedulable(vs) {
			fmt.Fprintln(stdout, "  task set schedulable")
		} else {
			fmt.Fprintln(stdout, "  task set NOT schedulable")
		}
	}

	rep, err := cohort.HardwareCost(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "\n%s\n", rep)
	return nil
}
