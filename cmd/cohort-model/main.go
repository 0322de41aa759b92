// Command cohort-model exhaustively model-checks the CoHoRT protocol: it
// enumerates every quiescent state reachable within a bounded number of
// event windows on a small configuration, replaying each candidate schedule
// through the real simulator with invariant checking enabled. A violation is
// reported as a minimized counterexample script, written to -out, replayable
// with -replay and renderable as a Perfetto trace with -chrome.
//
// Usage:
//
//	cohort-model -smoke                          # the CI tier (2 cores, 1 line, 2 modes)
//	cohort-model -smoke -depth 3                 # deeper exploration
//	cohort-model -smoke -mutate timer-release-skew -out cex.txt
//	cohort-model -replay cex.txt -chrome cex.json
//
// Exit status: 0 when exploration (or replay) finds no violation, 1 when a
// violation is found, 2 on usage or internal errors.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cohort/internal/cliutil"
	"cohort/internal/config"
	"cohort/internal/model"
)

// errViolation reports that exploration or replay found a violation; it is
// already printed, and main maps it to exit status 1.
var errViolation = errors.New("violation found")

func main() {
	switch err := run(os.Args[1:], os.Stdout); {
	case err == nil:
	case errors.Is(err, errViolation):
		os.Exit(1)
	default:
		fmt.Fprintln(os.Stderr, "cohort-model:", err)
		os.Exit(2)
	}
}

// address and cycles parse one -lines and one -gaps/-offsets element; both
// take any Go integer literal, so addresses may be written in hex.
func address(s string) (uint64, error) { return strconv.ParseUint(s, 0, 64) }
func cycles(s string) (int64, error)   { return strconv.ParseInt(s, 0, 64) }

// run explores or replays as the flags select and writes the verdict to
// stdout. The flag set exits on its own for -h (0) and bad flags (2).
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cohort-model", flag.ExitOnError)
	var (
		smoke      = fs.Bool("smoke", false, "explore the smoke configuration (2 cores, 1 line, 2 modes, θ ∈ {−1,0,2,5})")
		configFile = fs.String("config", "", "explore a platform from this config JSON file instead of -smoke")
		lines      = fs.String("lines", "0x1000", "comma-separated byte addresses of the lines to exercise (with -config)")
		depth      = fs.Int("depth", 2, "exploration depth in windows")
		gaps       = fs.String("gaps", "", "override post-quiescence gap menu (comma-separated cycles)")
		offsets    = fs.String("offsets", "", "override intra-window race offset menu (comma-separated cycles)")
		noPairs    = fs.Bool("no-pairs", false, "disable two-command race windows (faster, shallower)")
		noSym      = fs.Bool("no-symmetry", false, "disable symmetry reduction over identical cores")
		maxStates  = fs.Int64("max-states", 0, "truncate after this many distinct states (0 = exhaustive)")
		spillDir   = fs.String("spill-dir", "", "visited-set spill directory (default: temp)")
		spillAt    = fs.Int("spill-threshold", 0, "in-memory visited keys before spilling to disk (default 1M)")
		mutate     = fs.String("mutate", "", "arm a seeded protocol fault: "+strings.Join(model.MutationNames(), " | "))
		out        = fs.String("out", "counterexample.txt", "write the minimized counterexample script here on violation")
		replayFile = fs.String("replay", "", "replay a counterexample script instead of exploring")
		chrome     = fs.String("chrome", "", "with -replay: write a Perfetto/Chrome trace of the replay here")
		quiet      = fs.Bool("q", false, "suppress per-level progress")
	)
	_ = fs.Parse(args) // ExitOnError: Parse itself exits 0 on -h and 2 on a bad flag
	gapMenu, err := cliutil.List("gaps", *gaps, 0, cycles)
	if err != nil {
		return err
	}
	offsetMenu, err := cliutil.List("offsets", *offsets, 0, cycles)
	if err != nil {
		return err
	}

	if *mutate != "" {
		if err := model.ApplyMutation(*mutate); err != nil {
			return err
		}
	}

	if *replayFile != "" {
		return replay(*replayFile, *chrome, stdout)
	}

	var mcfg model.Config
	switch {
	case *smoke && *configFile != "":
		return errors.New("-smoke and -config are mutually exclusive")
	case *smoke:
		mcfg = model.Smoke(*depth)
	case *configFile != "":
		raw, err := os.ReadFile(*configFile)
		if err != nil {
			return err
		}
		sys, err := config.ParseJSON(raw)
		if err != nil {
			return err
		}
		addrs, err := cliutil.List("lines", *lines, 0, address)
		if err != nil {
			return err
		}
		mcfg = model.Config{Sys: sys, Lines: addrs, Depth: *depth, Pairs: true, Symmetry: true}
	default:
		fs.Usage()
		return errors.New("need -smoke, -config or -replay")
	}
	if gapMenu != nil {
		mcfg.PostGaps = gapMenu
	}
	if offsetMenu != nil {
		mcfg.RaceOffsets = offsetMenu
	}
	if *noPairs {
		mcfg.Pairs = false
	}
	if *noSym {
		mcfg.Symmetry = false
	}
	mcfg.Depth = *depth
	mcfg.MaxStates = *maxStates
	mcfg.SpillDir = *spillDir
	mcfg.SpillThreshold = *spillAt
	if !*quiet {
		mcfg.Progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}

	c, err := model.New(mcfg)
	if err != nil {
		return err
	}
	res, err := c.Explore()
	if err != nil {
		return err
	}
	exhaustive := "exhaustive"
	if res.Truncated {
		exhaustive = "TRUNCATED"
	}
	fmt.Fprintf(stdout, "cohort-model: %d states, %d runs, depth %d (%s), %d spills\n",
		res.States, res.Runs, res.Depth, exhaustive, res.Spills)
	if res.Violation == nil {
		fmt.Fprintln(stdout, "cohort-model: no violations")
		return nil
	}
	v := res.Violation
	fmt.Fprintf(stdout, "cohort-model: VIOLATION [%s]\n  %s\n  script:    %s\n  minimized: %s\n",
		v.Kind, v.Err, model.Describe(v.Script), model.Describe(v.Minimized))
	script := func(w io.Writer) error { return model.WriteScript(w, c.Sys(), c.Lines(), v.Minimized) }
	if err := cliutil.WriteFile(*out, script); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cohort-model: counterexample written to %s (replay with -replay %s)\n", *out, *out)
	return errViolation
}

// replay re-executes a counterexample script through a checker rebuilt from
// the script's embedded configuration.
func replay(path, chrome string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sys, lines, script, err := model.ParseScript(f)
	if err != nil {
		return err
	}
	c, err := model.New(model.Config{Sys: sys, Lines: lines, Pairs: true})
	if err != nil {
		return err
	}
	var out *model.ReplayOutcome
	if chrome != "" {
		err = cliutil.WriteFile(chrome, func(w io.Writer) (err error) {
			out, err = c.ReplayChrome(script, w)
			return err
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "cohort-model: chrome trace written to %s (load at ui.perfetto.dev)\n", chrome)
	} else if out, err = c.Replay(script); err != nil {
		return err
	}
	fmt.Fprintf(stdout, "cohort-model: replayed %s\n", model.Describe(script))
	if out.Violation == nil {
		fmt.Fprintln(stdout, "cohort-model: replay clean (no violation)")
		return nil
	}
	fmt.Fprintf(stdout, "cohort-model: VIOLATION [%s]\n  %s\n", out.Violation.Kind, out.Violation.Err)
	return errViolation
}
