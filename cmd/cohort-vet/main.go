// Command cohort-vet runs the CoHoRT determinism lint suite (internal/lint)
// over the simulator packages. The analyzers enforce the contract that makes
// every simulation bit-reproducible: no map-order dependence, no wall-clock
// reads, no global randomness, no concurrency inside event callbacks, and no
// floating-point leakage into cycle arithmetic. Two analyzers guard the
// protocol and the suppressions themselves: exhaustive requires switches over
// protocol enums to cover every member (or declare a default), and allowdoc
// requires every //cohort:allow annotation to use the canonical
// '//cohort:allow <analyzer>: <reason>' form with a registered analyzer.
//
// Eight whole-program analyzers run over a conservative call graph of the
// entire module rather than file by file. Three guard the hot path: hotalloc
// (no allocation sites reachable from //cohort:hotpath roots), reachcontract
// (the determinism contracts enforced transitively from hot-path and oracle
// roots) and parallelpure (jobs handed to parallel.Map/MapErr may write only
// their index-addressed result slot). Five guard the concurrency contracts:
// lockorder (no cycles in the global mutex-acquisition order graph), atomicmix
// (a variable touched through sync/atomic is never accessed plainly), goleak
// (every go statement has a visible join or cancel path), ctxflow (blocking
// operations reachable from a //cohort:server root accept a context.Context)
// and syncmisuse (copied locks, WaitGroup.Add inside the goroutine, double
// unlock, cross-goroutine channel close without //cohort:chanowner).
//
// Usage:
//
//	go run ./cmd/cohort-vet [flags] [packages]
//
// Packages default to ./... and accept any `go list` pattern. The
// per-package analyzers check only the packages bound by the determinism
// contract (internal/{sim,core,bus,cache,coherence,memctrl,sched,trace,opt,
// invariant,model,obs}, defined in internal/lint); the whole-program
// analyzers see every matched package, so a helper in a cold package that
// reaches the kernel is still caught. Exit status is 0 when clean, 1 when
// any unbaselined finding or stale baseline entry is reported, and 2 on
// usage or load errors.
//
// Flags:
//
//	-baseline file   compare findings against a committed baseline: findings
//	                 listed there pass, new findings fail, stale entries fail
//	                 until pruned (the ratchet only shrinks)
//	-write-baseline  regenerate the -baseline file from the current findings
//	-json file       write the findings as a JSON report ("-" for stdout)
//	-only names      run only the named analyzers (comma-separated); CI uses
//	                 this to emit a concurrency-only report artifact
//	-graph           dump the conservative call graph and exit
//	-list            list the analyzers and exit
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"cohort/internal/lint"
)

// report is the schema of the -json output.
type report struct {
	Packages  int            `json:"packages"`
	Analyzers []string       `json:"analyzers"`
	Findings  []lint.Finding `json:"findings"`
	Baseline  *baselineInfo  `json:"baseline,omitempty"`
}

type baselineInfo struct {
	File     string   `json:"file"`
	Accepted int      `json:"accepted"`
	Fresh    int      `json:"fresh"`
	Stale    []string `json:"stale,omitempty"`
}

// violations reports unbaselined findings or stale baseline entries, already
// printed to stdout; exitCode maps it to exit status 1.
type violations struct{ failed, packages int }

func (v violations) Error() string {
	return fmt.Sprintf("%d violation(s) across %d package(s)", v.failed, v.packages)
}

// errFlags marks a flag-parse failure the flag package has already printed.
var errFlags = errors.New("bad flags")

func main() { os.Exit(exitCode(run(os.Args[1:], os.Stdout), os.Stderr)) }

// exitCode maps run's error to the exit status: 0 when clean (or -h), 1 on
// violations, 2 on usage and load errors. Errors other than flag-parse
// failures are printed to stderr as "cohort-vet: err".
func exitCode(err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if !errors.Is(err, errFlags) {
		fmt.Fprintln(stderr, "cohort-vet:", err)
	}
	if errors.As(err, new(violations)) {
		return 1
	}
	return 2
}

// run lints the packages args name and writes findings, reports and
// listings to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cohort-vet", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the analyzers and exit")
	baselinePath := fs.String("baseline", "", "baseline `file` of accepted findings (ratcheted: new findings fail)")
	writeBaseline := fs.Bool("write-baseline", false, "regenerate the -baseline file from current findings")
	jsonOut := fs.String("json", "", "write findings as a JSON report to `file` (\"-\" for stdout)")
	only := fs.String("only", "", "run only these `analyzers` (comma-separated names)")
	graph := fs.Bool("graph", false, "dump the conservative whole-program call graph and exit")
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: cohort-vet [flags] [packages]\n\n")
		fmt.Fprintf(fs.Output(), "Runs the determinism lint suite over the simulator packages.\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return err
		}
		return fmt.Errorf("%w: %w", errFlags, err)
	}

	analyzers, err := selectAnalyzers(*only)
	if err != nil {
		return err
	}
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name, a.Doc)
		}
		return nil
	}
	if *writeBaseline && *baselinePath == "" {
		return errors.New("-write-baseline requires -baseline <file>")
	}

	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	prog, err := lint.LoadProgram(patterns...)
	if err != nil {
		return err
	}
	if *graph {
		cg, err := lint.BuildGraph(prog)
		if err != nil {
			return err
		}
		cg.Dump(stdout)
		return nil
	}

	cwd, _ := os.Getwd() // without a cwd, findings keep absolute paths
	findings, contract, err := lint.Vet(prog, analyzers, cwd)
	if err != nil {
		return err
	}
	rep := report{Packages: len(prog.Pkgs), Findings: findings}
	for _, a := range analyzers {
		rep.Analyzers = append(rep.Analyzers, a.Name)
	}

	if *writeBaseline {
		if err := os.WriteFile(*baselinePath, lint.FormatBaseline(findings), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "cohort-vet: wrote %s (%d finding(s))\n", *baselinePath, len(findings))
		return nil
	}

	failed := 0
	if *baselinePath != "" {
		data, err := os.ReadFile(*baselinePath)
		if err != nil {
			return err
		}
		accepted, err := lint.ParseBaseline(data)
		if err != nil {
			return err
		}
		fresh, stale := lint.DiffBaseline(findings, accepted)
		rep.Baseline = &baselineInfo{File: *baselinePath, Accepted: len(accepted), Fresh: len(fresh), Stale: stale}
		for _, f := range fresh {
			failed++
			fmt.Fprintf(stdout, "%s\n", f)
		}
		for _, k := range stale {
			failed++
			fmt.Fprintf(stdout, "stale baseline entry (finding no longer fires — prune with -write-baseline): %q\n", k)
		}
	} else {
		for _, f := range findings {
			failed++
			fmt.Fprintf(stdout, "%s\n", f)
		}
	}

	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			_, err = stdout.Write(data)
		} else {
			err = os.WriteFile(*jsonOut, data, 0o644)
		}
		if err != nil {
			return err
		}
	}

	if failed > 0 {
		return violations{failed, len(prog.Pkgs)}
	}
	fmt.Fprintf(stdout, "cohort-vet: ok (%d packages, %d contract packages, %d analyzers)\n",
		len(prog.Pkgs), contract, len(analyzers))
	return nil
}

// selectAnalyzers returns the suite, or with -only the named analyzers in
// suite order; an unknown name is an error.
func selectAnalyzers(only string) ([]*lint.Analyzer, error) {
	analyzers := lint.Analyzers()
	if only == "" {
		return analyzers, nil
	}
	wanted := make(map[string]bool)
	for _, name := range strings.Split(only, ",") {
		wanted[strings.TrimSpace(name)] = true
	}
	var selected []*lint.Analyzer
	for _, a := range analyzers {
		if wanted[a.Name] {
			selected = append(selected, a)
			delete(wanted, a.Name)
		}
	}
	if len(wanted) > 0 {
		var unknown []string
		for name := range wanted {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		return nil, fmt.Errorf("-only names unknown analyzer(s) %v (see -list)", unknown)
	}
	return selected, nil
}
