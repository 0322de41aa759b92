// Package cliutil is the spine the cohort CLIs share. It owns the flag
// groups every tool registers the same way: the worker/oracle knobs (-j,
// -curve, -surrogate), the generated workload (-bench, -cores, -scale,
// -seed), artifact output and observability (-out-dir, -listen,
// -log-level, -log-json) and profiling (-cpuprofile, -memprofile). It also
// owns four decisions each tool used to make by hand: how a per-core comma
// list parses (List), how a generated trace is built (Generate), how a run
// manifest and its Chrome sidecar are written (WriteRun), and what exit
// status an error maps to (Parse, Main).
package cliutil

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"

	"cohort/internal/config"
	"cohort/internal/obs"
	"cohort/internal/trace"
)

// Common holds the shared flag values of one CLI invocation. Register the
// groups a tool needs, Parse, then use the accessors.
type Common struct {
	Tool string

	// Work flags (RegisterWork).
	Jobs      int
	Curve     bool
	Surrogate bool

	// Generated-workload flags (RegisterWorkload).
	Bench string
	Cores int
	Scale float64
	Seed  uint64

	// Observability flags (RegisterObs).
	OutDir   string
	Listen   string
	LogLevel string
	LogJSON  bool

	// Profiling flags (RegisterProfile).
	CPUProfile string
	MemProfile string
}

// New returns a Common for the named tool.
func New(tool string) *Common {
	return &Common{Tool: tool}
}

// RegisterWork installs the work flags: -j, -curve and -surrogate. Tools
// whose results are independent of -j and -curve (by the deterministic-
// parallelism and exact-oracle contracts) share one help text stating so.
func (c *Common) RegisterWork(fs *flag.FlagSet) {
	fs.IntVar(&c.Jobs, "j", 0, "evaluation workers (1 = serial, <1 = NumCPU); output is identical for every value")
	fs.BoolVar(&c.Curve, "curve", true, "let the optimizer answer oracle queries from per-core hit-curve indexes once they pay off (tier 1, exact); output is identical for every value")
	fs.BoolVar(&c.Surrogate, "surrogate", false, "prefilter GA children with the curve-bound surrogate fitness (tier 2, approximate: fewer exact evaluations, optimum may differ); requires -curve")
}

// RegisterWorkload installs the generated-workload flags: -bench, -cores,
// -scale and -seed. Generate builds the trace they describe.
func (c *Common) RegisterWorkload(fs *flag.FlagSet) {
	fs.StringVar(&c.Bench, "bench", "fft", "benchmark profile to generate")
	fs.IntVar(&c.Cores, "cores", 4, "number of cores")
	fs.Float64Var(&c.Scale, "scale", 0.05, "access-count scale factor (1.0 = paper-sized)")
	fs.Uint64Var(&c.Seed, "seed", 42, "trace generator seed")
}

// Generate looks up the -bench profile and generates its -scale'd trace
// for -cores cores at the given line size from -seed.
func (c *Common) Generate(lineBytes int) (*trace.Trace, error) {
	p, err := trace.ProfileByName(c.Bench)
	if err != nil {
		return nil, err
	}
	return p.Scaled(c.Scale).Generate(c.Cores, lineBytes, c.Seed), nil
}

// RegisterObs installs the observability flags: -out-dir, -listen,
// -log-level and -log-json.
func (c *Common) RegisterObs(fs *flag.FlagSet) {
	fs.StringVar(&c.OutDir, "out-dir", "", "write a run manifest (and tool-specific artifacts) into this directory")
	fs.StringVar(&c.Listen, "listen", "", "serve /metrics, /runs, /healthz and /debug/pprof/ on this address (e.g. :8723) for the lifetime of the run")
	fs.StringVar(&c.LogLevel, "log-level", "info", "log threshold: debug, info, warn, error or off")
	fs.BoolVar(&c.LogJSON, "log-json", false, "emit structured JSON log lines instead of plain text")
}

// RegisterProfile installs the profiling flags: -cpuprofile and
// -memprofile.
func (c *Common) RegisterProfile(fs *flag.FlagSet) {
	fs.StringVar(&c.CPUProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&c.MemProfile, "memprofile", "", "write a heap profile to this file on exit")
}

// Logger builds the tool's logger from -log-level/-log-json, writing to w
// (the tools pass os.Stderr). In text mode at the default level the output
// is byte-for-byte what the pre-logger fmt.Fprintf call sites produced.
func (c *Common) Logger(w io.Writer, clk obs.Clock) (*obs.Logger, error) {
	level, err := obs.ParseLogLevel(c.LogLevel)
	if err != nil {
		return nil, err
	}
	return obs.NewLogger(w, level, c.LogJSON, c.Tool, clk), nil
}

// StartServer starts the debug server when -listen is set; without the
// flag it returns (nil, nil) and the nil *DebugServer's Close is a no-op.
// The bound address is logged so ":0" runs are scrapeable.
func (c *Common) StartServer(reg *obs.Registry, tracker *obs.RunTracker, log *obs.Logger) (*obs.DebugServer, error) {
	if c.Listen == "" {
		return nil, nil
	}
	srv, err := obs.StartDebugServer(c.Listen, reg, tracker)
	if err != nil {
		return nil, err
	}
	log.Infof("%s: serving /metrics, /runs, /healthz, /debug/pprof/ on http://%s", c.Tool, srv.Addr())
	return srv, nil
}

// StartProfiles starts the CPU profile when -cpuprofile is set and returns
// a stop function that finishes it and writes the heap profile when
// -memprofile is set. The stop function is never nil; defer it
// unconditionally. Heap-profile failures are logged, not fatal — the run's
// results are already out by then.
func (c *Common) StartProfiles(log *obs.Logger) (func(), error) {
	var cpuFile *os.File
	if c.CPUProfile != "" {
		f, err := os.Create(c.CPUProfile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		cpuFile = f
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuFile.Close()
		}
		if c.MemProfile == "" {
			return
		}
		f, err := os.Create(c.MemProfile)
		if err != nil {
			log.Errorf("%s: memprofile: %v", c.Tool, err)
			return
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Errorf("%s: memprofile: %v", c.Tool, err)
		}
	}, nil
}

// WriteRun finishes man, writes it into -out-dir and, when rec is non-nil,
// writes rec's Chrome trace beside it as <name>.trace.json.
func (c *Common) WriteRun(man *obs.Manifest, rec *obs.Recorder, clk obs.Clock, log *obs.Logger) error {
	man.Finish(clk)
	path, err := man.Write(c.OutDir)
	if err != nil {
		return err
	}
	wrote := path
	if rec != nil {
		tracePath := strings.TrimSuffix(path, ".manifest.json") + ".trace.json"
		if err := WriteFile(tracePath, rec.WriteChrome); err != nil {
			return err
		}
		wrote += " and " + tracePath
	}
	log.Infof("%s: wrote %s", c.Tool, wrote)
	return nil
}

// WriteFile creates path, fills it with write and closes it. A failed
// write or close is an error, so a short write never passes silently.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// List parses a comma-separated flag value, one element per comma, with
// elem. Empty input gives nil, so the caller keeps its default. When n > 0
// the list must hold exactly n values, one per core. Errors name the flag
// and, for a bad element, the value.
func List[T any](name, s string, n int, elem func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	if n > 0 && len(parts) != n {
		return nil, fmt.Errorf("-%s has %d values for %d cores", name, len(parts), n)
	}
	out := make([]T, len(parts))
	for i, p := range parts {
		v, err := elem(strings.TrimSpace(p))
		if err != nil {
			var ne *strconv.NumError
			if errors.As(err, &ne) {
				err = ne.Err
			}
			return nil, fmt.Errorf("bad -%s value %q: %v", name, p, err)
		}
		out[i] = v
	}
	return out, nil
}

// Bit parses one element of a per-core mask: exactly 0 or 1.
func Bit(s string) (bool, error) {
	if s != "0" && s != "1" {
		return false, errors.New("want 0 or 1")
	}
	return s == "1", nil
}

// Timer parses one per-core timer θ (-1 selects MSI, 0 no caching).
func Timer(s string) (config.Timer, error) {
	v, err := strconv.ParseInt(s, 10, 32)
	return config.Timer(v), err
}

// Cycles parses one non-negative cycle count, such as a deadline or a
// WCML requirement Γ.
func Cycles(s string) (int64, error) {
	v, err := strconv.ParseInt(s, 10, 64)
	if err == nil && v < 0 {
		return 0, errors.New("must be at least 0")
	}
	return v, err
}

// errUsage marks a flag-parse failure, which Main maps to exit status 2.
var errUsage = errors.New("usage")

// Parse parses args into fs, then checks the trace-sizing flags fs
// defines. A parse failure, -h included, is returned as a usage error; the
// flag package has already printed it with the usage text.
func Parse(fs *flag.FlagSet, args []string) error {
	if err := fs.Parse(args); err != nil {
		return fmt.Errorf("%w: %w", errUsage, err)
	}
	return checkSizing(fs)
}

// Main runs a tool on the process arguments and exits with the shared
// contract: 0 on success or -h, 2 on a flag-parse error, and 1 on any
// other error, printed to stderr as "tool: err".
func Main(tool string, run func(args []string, stdout io.Writer) error) {
	os.Exit(exitCode(tool, run(os.Args[1:], os.Stdout), os.Stderr))
}

func exitCode(tool string, err error, stderr io.Writer) int {
	if err == nil || errors.Is(err, flag.ErrHelp) {
		return 0
	}
	if errors.Is(err, errUsage) {
		return 2
	}
	fmt.Fprintf(stderr, "%s: %v\n", tool, err)
	return 1
}

// checkSizing validates the trace-sizing flags a tool registered on fs, so
// a bad value is an error naming the flag rather than a panic in trace
// generation or a silently floored one-access-per-core trace: -scale must
// be positive and finite, -cores and -line at least 1, and -cap at least 0
// (0 = no cap). Flags fs does not define are skipped.
func checkSizing(fs *flag.FlagSet) error {
	checks := []struct {
		name string
		bad  func(v any) bool
		want string
	}{
		{"scale", func(v any) bool { x := v.(float64); return !(x > 0) || math.IsInf(x, 0) }, "positive and finite"},
		{"cores", func(v any) bool { return v.(int) < 1 }, "at least 1"},
		{"line", func(v any) bool { return v.(int) < 1 }, "at least 1"},
		{"cap", func(v any) bool { return v.(int) < 0 }, "at least 0 (0 = no cap)"},
	}
	for _, c := range checks {
		f := fs.Lookup(c.name)
		if f == nil {
			continue
		}
		if c.bad(f.Value.(flag.Getter).Get()) {
			return fmt.Errorf("invalid -%s %s: must be %s", c.name, f.Value, c.want)
		}
	}
	return nil
}
