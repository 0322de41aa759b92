// Command cohort-sim runs one cycle-accurate simulation: a workload (a named
// synthetic benchmark or a trace file) on a platform (CoHoRT with explicit
// timers, or one of the paper's baselines), printing per-core measurements
// and, when available, the analytical WCML bounds next to them.
//
// Usage:
//
//	cohort-sim -bench fft -timers 300,20,20,20
//	cohort-sim -bench radix -system pendulum -crit 1,1,0,0
//	cohort-sim -trace fft.trace -system pcc
//	cohort-sim -bench fft -timers 300,20,20,-1 -switch 5000:2
package main

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"cohort"
	"cohort/internal/cliutil"
	"cohort/internal/experiments"
	"cohort/internal/obs"
	"cohort/internal/parallel"
)

func main() { cliutil.Main("cohort-sim", run) }

// modeSwitch is one -switch entry: switch to mode at cycle.
type modeSwitch struct {
	cycle int64
	mode  int
}

// parseSwitch parses one -switch entry written cycle:mode.
func parseSwitch(s string) (modeSwitch, error) {
	c, m, ok := strings.Cut(s, ":")
	if !ok {
		return modeSwitch{}, errors.New("want cycle:mode")
	}
	cyc, err := strconv.ParseInt(c, 10, 64)
	if err != nil {
		return modeSwitch{}, err
	}
	mode, err := strconv.Atoi(m)
	return modeSwitch{cyc, mode}, err
}

// run simulates the configured workload and platform and writes the
// measurements, next to their analytical bounds, to stdout.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("cohort-sim", flag.ContinueOnError)
	cu := cliutil.New("cohort-sim")
	cu.RegisterObs(fs)
	cu.RegisterWorkload(fs)
	var (
		traceFile  = fs.String("trace", "", "read the workload from this trace file (text or binary) instead of generating -bench")
		dinFiles   = fs.String("din", "", "comma-separated Dinero (.din) files, one per core")
		system     = fs.String("system", "cohort", "platform: cohort | pcc | pendulum | msifcfs")
		timers     = fs.String("timers", "", "comma-separated per-core timers for cohort (e.g. 300,20,20,-1)")
		crit       = fs.String("crit", "", "comma-separated 0/1 criticality mask for pendulum (default: all critical)")
		nonperfect = fs.Bool("nonperfect", false, "use the non-perfect LLC with a fixed-latency DRAM")
		switches   = fs.String("switch", "", "scheduled mode switches as cycle:mode[,cycle:mode...] (cohort with levels)")
		levels     = fs.Int("levels", 1, "number of criticality levels/modes")
		mesi       = fs.Bool("mesi", false, "use the MESI snooping protocol instead of MSI")
		hist       = fs.Bool("hist", false, "print per-core latency histograms")
		hwOverhead = fs.Bool("hwcost", false, "print the CoHoRT hardware-overhead report")
		vcdFile    = fs.String("vcd", "", "write a Value Change Dump of the run to this file")
		checkInv   = fs.Bool("check", false, "validate protocol invariants after every bus transaction (slower)")
		chromeFile = fs.String("chrome", "", "write a Chrome trace (Perfetto) of the run to this file")
		attr       = fs.Bool("attr", false, "register the per-core WCML latency-attribution metrics (with -out-dir: included in the manifest snapshot)")
	)
	if err := cliutil.Parse(fs, args); err != nil {
		return err
	}
	sws, err := cliutil.List("switch", *switches, 0, parseSwitch)
	if err != nil {
		return err
	}

	clk := obs.Clock(obs.WallClock{})
	log, err := cu.Logger(os.Stderr, clk)
	if err != nil {
		return err
	}

	tr, err := loadTrace(*traceFile, *dinFiles, cu)
	if err != nil {
		return err
	}
	n := tr.NumCores()

	// Every per-core list is checked, whichever -system reads it, so a
	// malformed one is an error rather than silently ignored.
	ths, err := cliutil.List("timers", *timers, n, cliutil.Timer)
	if err != nil {
		return err
	}
	mask, err := cliutil.List("crit", *crit, n, cliutil.Bit)
	if err != nil {
		return err
	}
	var cfg *cohort.SystemConfig
	switch *system {
	case "cohort":
		if ths == nil {
			ths = make([]cohort.Timer, n)
			for i := range ths {
				ths[i] = 100 // a moderate default
			}
		}
		if cfg, err = cohort.NewCoHoRT(n, *levels, ths); err != nil {
			return err
		}
	case "pcc":
		cfg = cohort.NewPCC(n)
	case "pendulum":
		if mask == nil {
			mask = make([]bool, n)
			for i := range mask {
				mask[i] = true
			}
		}
		cfg = cohort.NewPENDULUM(mask)
	case "msifcfs":
		cfg = cohort.NewMSIFCFS(n)
	default:
		return fmt.Errorf("unknown system %q", *system)
	}
	if *nonperfect {
		cfg.PerfectLLC = false
	}
	if *mesi {
		cfg.Snoop = cohort.SnoopMESI
	}
	if *checkInv {
		cfg.CheckInvariants = true
	}

	bounds, err := cohort.Bounds(cfg, tr)
	if err != nil {
		return err
	}
	sys, err := cohort.NewSystem(cfg, tr)
	if err != nil {
		return err
	}
	var (
		reg *obs.Registry
		rec *obs.Recorder
	)
	if cu.OutDir != "" {
		reg = obs.NewRegistry()
		if err := sys.SetMetrics(reg); err != nil {
			return err
		}
		if *attr {
			if err := sys.RegisterAttribution(reg); err != nil {
				return err
			}
		}
	}

	// Live observability. The debug server gets the tracker but NOT the
	// manifest registry: SetMetrics registers closures that read live
	// simulator state, so scraping that registry mid-run would race the
	// single-threaded simulation. The tracker's atomic counters are the
	// race-free live surface.
	tracker := obs.NewRunTracker(clk)
	rh := tracker.Register("cohort-sim", tr.Name)
	if err := sys.SetProgress(rh); err != nil {
		return err
	}
	srv, err := cu.StartServer(nil, tracker, log)
	if err != nil {
		return err
	}
	defer srv.Close()
	if *chromeFile != "" {
		rec = obs.NewRecorder()
		if err := sys.SetRecorder(rec); err != nil {
			return err
		}
	}
	var closeVCD func() error
	if *vcdFile != "" {
		f, err := os.Create(*vcdFile)
		if err != nil {
			return err
		}
		defer f.Close() // for the error paths; closeVCD checks the success path's Close
		rec, err := cohort.NewVCDRecorder(f, n)
		if err != nil {
			return err
		}
		if err := sys.SetTracer(rec); err != nil {
			return err
		}
		closeVCD = func() error { return errors.Join(rec.Close(), f.Close()) }
	}
	for _, sw := range sws {
		if err := sys.ScheduleModeSwitch(sw.cycle, sw.mode); err != nil {
			return err
		}
	}
	res, err := sys.Run()
	if err != nil {
		return err
	}
	rh.Finish()
	if err := sys.CheckCoherence(); err != nil {
		return fmt.Errorf("coherence check failed: %w", err)
	}

	fmt.Fprintf(stdout, "workload %s on %s (%d cores, arbiter %s, %s transfers, perfect LLC %v)\n",
		tr.Name, *system, n, cfg.Arbiter, cfg.Transfer, cfg.PerfectLLC)
	fmt.Fprint(stdout, res)
	fmt.Fprintln(stdout, "per-core WCML (measured vs analytical bound):")
	for i := range res.Cores {
		b := bounds[i]
		bound := "unbounded"
		if b.WCMLBound != cohort.Unbounded {
			bound = fmt.Sprintf("%d", b.WCMLBound)
		}
		fmt.Fprintf(stdout, "  core %d (θ=%v): measured %d, bound %s, guaranteed hits %d (achieved %d)\n",
			i, b.Theta, res.Cores[i].TotalLatency, bound, b.MHit, res.Cores[i].Hits)
	}
	if *hist {
		for i := range res.Cores {
			fmt.Fprintf(stdout, "core %d latency distribution:\n%s", i, res.Cores[i].Latency.String())
		}
	}
	if *hwOverhead {
		rep, err := cohort.HardwareCost(cfg)
		if err != nil {
			return err
		}
		fmt.Fprintln(stdout, rep)
	}
	if closeVCD != nil {
		if err := closeVCD(); err != nil {
			return err
		}
		log.Infof("wrote waveform to %s", *vcdFile)
	}
	if rec != nil {
		if err := cliutil.WriteFile(*chromeFile, rec.WriteChrome); err != nil {
			return err
		}
		log.Infof("wrote chrome trace to %s (load at ui.perfetto.dev)", *chromeFile)
	}
	if reg != nil {
		man := obs.NewManifest("cohort-sim", clk)
		man.Args = args
		// The key covers the full platform description and the workload
		// content; the simulator is single-threaded, so workers is always 1.
		cfgJSON, err := json.Marshal(cfg)
		if err != nil {
			return err
		}
		fp := experiments.Fingerprint(tr)
		k := parallel.NewKey("cohort-sim/config").Bytes(cfgJSON).Str(fp).Str(*switches)
		man.ConfigKey = hex.EncodeToString([]byte(k.Sum()))
		man.Traces = []obs.TraceRef{{Name: tr.Name, Fingerprint: fp}}
		man.Seed = int64(cu.Seed)
		man.Workers = 1
		man.Metrics = reg.Snapshot()
		if err := cu.WriteRun(man, nil, clk, log); err != nil {
			return err
		}
	}
	return nil
}

// loadTrace reads the workload from the -din files or the -trace file, or
// generates the -bench profile when neither is given.
func loadTrace(path, din string, cu *cliutil.Common) (*cohort.Trace, error) {
	if din != "" {
		var streams []cohort.Stream
		for _, f := range strings.Split(din, ",") {
			fh, err := os.Open(strings.TrimSpace(f))
			if err != nil {
				return nil, err
			}
			s, err := cohort.ParseDinero(fh)
			fh.Close()
			if err != nil {
				return nil, fmt.Errorf("%s: %w", f, err)
			}
			streams = append(streams, s)
		}
		return cohort.TraceFromStreams("dinero", streams...), nil
	}
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		br := bufio.NewReader(f)
		if magic, err := br.Peek(4); err == nil && string(magic) == "CTRB" {
			return cohort.ParseBinaryTrace(br)
		}
		return cohort.ParseTrace(br)
	}
	return cu.Generate(64)
}
