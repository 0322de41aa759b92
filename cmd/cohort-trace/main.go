// Command cohort-trace generates and inspects the synthetic SPLASH-2-shaped
// workload traces that drive the simulator.
//
// Usage:
//
//	cohort-trace -bench fft -cores 4 -scale 0.05 -seed 42 -out fft.trace
//	cohort-trace -bench ocean -summary
//	cohort-trace -list
package main

import (
	"flag"
	"fmt"
	"os"

	"cohort"
	"cohort/internal/cliutil"
)

func main() {
	var (
		bench   = flag.String("bench", "fft", "benchmark profile name")
		cores   = flag.Int("cores", 4, "number of cores")
		scale   = flag.Float64("scale", 0.05, "access-count scale factor (1.0 = paper-sized)")
		seed    = flag.Uint64("seed", 42, "generator seed")
		line    = flag.Int("line", 64, "cache line size in bytes")
		out     = flag.String("out", "", "write the trace to this file ('-' or empty = stdout unless -summary)")
		summary = flag.Bool("summary", false, "print per-core statistics instead of the trace")
		binform = flag.Bool("binary", false, "write the compact binary format instead of text")
		list    = flag.Bool("list", false, "list available benchmark profiles")
	)
	flag.Parse()
	if err := cliutil.CheckSizing(flag.CommandLine); err != nil {
		fatal(err)
	}

	if *list {
		for _, p := range cohort.Profiles() {
			fmt.Printf("%-10s %8d accesses/core  shared %4d lines  %2.0f%% writes\n",
				p.Name, p.AccessesPerCore, p.SharedLines, 100*p.PWrite)
		}
		return
	}

	p, err := cohort.ProfileByName(*bench)
	if err != nil {
		fatal(err)
	}
	tr := p.Scaled(*scale).Generate(*cores, *line, *seed)

	if *summary {
		fmt.Print(cohort.SummarizeTrace(tr, *line))
		return
	}
	w := os.Stdout
	if *out != "" && *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	writeFn := tr.Write
	if *binform {
		writeFn = tr.WriteBinary
	}
	if err := writeFn(w); err != nil {
		fatal(err)
	}
	if w != os.Stdout {
		fmt.Fprintf(os.Stderr, "wrote %d accesses (%d cores) to %s\n", tr.TotalAccesses(), tr.NumCores(), *out)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "cohort-trace:", err)
	os.Exit(1)
}
