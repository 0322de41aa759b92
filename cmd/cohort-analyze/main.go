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
	"os"
	"strconv"
	"strings"

	"cohort"
	"cohort/internal/cliutil"
)

func main() {
	var (
		bench     = flag.String("bench", "fft", "benchmark profile")
		cores     = flag.Int("cores", 4, "number of cores")
		scale     = flag.Float64("scale", 0.05, "access-count scale factor")
		seed      = flag.Uint64("seed", 42, "trace generator seed")
		timers    = flag.String("timers", "300,20,20,-1", "comma-separated per-core timers")
		sweep     = flag.Bool("sweep", false, "print the θ_is saturation sweep per core")
		deadlines = flag.String("deadlines", "", "comma-separated per-core task deadlines in cycles (0 = none) for a schedulability check")
		levels    = flag.Int("levels", 1, "criticality levels (for the hardware bill)")
	)
	flag.Parse()
	if err := cliutil.CheckSizing(flag.CommandLine); err != nil {
		fatal(err)
	}

	p, err := cohort.ProfileByName(*bench)
	if err != nil {
		fatal(err)
	}
	tr := p.Scaled(*scale).Generate(*cores, 64, *seed)
	ths, err := parseTimers(*timers, *cores)
	if err != nil {
		fatal(err)
	}
	cfg, err := cohort.NewCoHoRT(*cores, *levels, ths)
	if err != nil {
		fatal(err)
	}

	bounds, err := cohort.Bounds(cfg, tr)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("workload %s (Λ = %d per core), timers %v\n\n", tr.Name, tr.Lambda(0), ths)
	fmt.Println("per-core analysis (Eq. 1 / Eq. 2-3):")
	for _, b := range bounds {
		fmt.Printf("  core %d (θ=%-8v): WCL %6d, guaranteed hits %5d / misses %5d, WCML bound %10d\n",
			b.Core, b.Theta, b.WCL, b.MHit, b.MMiss, b.WCMLBound)
	}

	if *sweep {
		base := cohort.PaperDefaults(*cores, *levels)
		fmt.Println("\nθ_is saturation sweep:")
		for i, s := range tr.Streams {
			thIS, satHits := cohort.SaturationTimer(s, base.L1, base.Lat)
			fmt.Printf("  core %d: θ_is = %5v (%d of %d accesses guaranteed at saturation)\n",
				i, thIS, satHits, len(s))
		}
	}

	if *deadlines != "" {
		parts := strings.Split(*deadlines, ",")
		if len(parts) != *cores {
			fatal(fmt.Errorf("-deadlines has %d values for %d cores", len(parts), *cores))
		}
		var tasks []cohort.Task
		for i, s := range parts {
			d, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
			if err != nil || d < 0 {
				fatal(fmt.Errorf("bad deadline %q", s))
			}
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
			fatal(err)
		}
		fmt.Println("\nschedulability:")
		for _, v := range vs {
			verdict := "OK"
			if !v.Schedulable() {
				verdict = "DEADLINE MISS POSSIBLE"
			}
			fmt.Printf("  %s: WCET bound %d vs deadline %d — %s\n",
				v.Task.Name, v.WCET, v.Task.Deadline, verdict)
		}
		if cohort.SetSchedulable(vs) {
			fmt.Println("  task set schedulable")
		} else {
			fmt.Println("  task set NOT schedulable")
		}
	}

	rep, err := cohort.HardwareCost(cfg)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("\n%s\n", rep)
}

func parseTimers(s string, n int) ([]cohort.Timer, error) {
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("-timers has %d values for %d cores", len(parts), n)
	}
	out := make([]cohort.Timer, n)
	for i, p := range parts {
		v, err := strconv.ParseInt(strings.TrimSpace(p), 10, 32)
		if err != nil {
			return nil, fmt.Errorf("bad timer %q: %v", p, err)
		}
		out[i] = cohort.Timer(v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cohort-analyze:", err)
	os.Exit(1)
}
