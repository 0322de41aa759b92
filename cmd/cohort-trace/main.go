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
	"io"
	"os"

	"cohort"
	"cohort/internal/cliutil"
)

func main() { cliutil.Main("cohort-trace", run) }

// run generates the configured trace and writes it, or its summary, to
// stdout or -out.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cohort-trace", flag.ContinueOnError)
	cu := cliutil.New("cohort-trace")
	cu.RegisterWorkload(fs)
	var (
		line    = fs.Int("line", 64, "cache line size in bytes")
		out     = fs.String("out", "", "write the trace to this file ('-' or empty = stdout unless -summary)")
		summary = fs.Bool("summary", false, "print per-core statistics instead of the trace")
		binform = fs.Bool("binary", false, "write the compact binary format instead of text")
		list    = fs.Bool("list", false, "list available benchmark profiles")
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}

	if *list {
		for _, p := range cohort.Profiles() {
			fmt.Fprintf(stdout, "%-10s %8d accesses/core  shared %4d lines  %2.0f%% writes\n",
				p.Name, p.AccessesPerCore, p.SharedLines, 100*p.PWrite)
		}
		return nil
	}

	tr, err := cu.Generate(*line)
	if err != nil {
		return err
	}
	if *summary {
		fmt.Fprint(stdout, cohort.SummarizeTrace(tr, *line))
		return nil
	}
	write := tr.Write
	if *binform {
		write = tr.WriteBinary
	}
	if *out == "" || *out == "-" {
		return write(stdout)
	}
	if err := cliutil.WriteFile(*out, write); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %d accesses (%d cores) to %s\n", tr.TotalAccesses(), tr.NumCores(), *out)
	return nil
}
