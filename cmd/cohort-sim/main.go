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
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"cohort"
	"cohort/internal/cliutil"
	"cohort/internal/experiments"
	"cohort/internal/obs"
	"cohort/internal/parallel"
)

func main() {
	cu := cliutil.New("cohort-sim")
	cu.RegisterObs(flag.CommandLine)
	var (
		bench      = flag.String("bench", "fft", "benchmark profile (ignored with -trace)")
		traceFile  = flag.String("trace", "", "read the workload from this trace file (text or binary)")
		dinFiles   = flag.String("din", "", "comma-separated Dinero (.din) files, one per core")
		cores      = flag.Int("cores", 4, "number of cores")
		scale      = flag.Float64("scale", 0.05, "access-count scale factor")
		seed       = flag.Uint64("seed", 42, "trace generator seed")
		system     = flag.String("system", "cohort", "platform: cohort | pcc | pendulum | msifcfs")
		timers     = flag.String("timers", "", "comma-separated per-core timers for cohort (e.g. 300,20,20,-1)")
		crit       = flag.String("crit", "", "comma-separated 0/1 criticality mask for pendulum (default: all critical)")
		nonperfect = flag.Bool("nonperfect", false, "use the non-perfect LLC with a fixed-latency DRAM")
		switches   = flag.String("switch", "", "scheduled mode switches as cycle:mode[,cycle:mode...] (cohort with levels)")
		levels     = flag.Int("levels", 1, "number of criticality levels/modes")
		mesi       = flag.Bool("mesi", false, "use the MESI snooping protocol instead of MSI")
		hist       = flag.Bool("hist", false, "print per-core latency histograms")
		hwOverhead = flag.Bool("hwcost", false, "print the CoHoRT hardware-overhead report")
		vcdFile    = flag.String("vcd", "", "write a Value Change Dump of the run to this file")
		checkInv   = flag.Bool("check", false, "validate protocol invariants after every bus transaction (slower)")
		chromeFile = flag.String("chrome", "", "write a Chrome trace (Perfetto) of the run to this file")
		attr       = flag.Bool("attr", false, "register the per-core WCML latency-attribution metrics (with -out-dir: included in the manifest snapshot)")
	)
	flag.Parse()

	clk := obs.Clock(obs.WallClock{})
	log, err := cu.Logger(os.Stderr, clk)
	if err != nil {
		fatal(err)
	}

	tr, err := loadTrace(*traceFile, *dinFiles, *bench, *cores, *scale, *seed)
	if err != nil {
		fatal(err)
	}
	n := tr.NumCores()

	var cfg *cohort.SystemConfig
	switch *system {
	case "cohort":
		ths, err := parseTimers(*timers, n)
		if err != nil {
			fatal(err)
		}
		cfg, err = cohort.NewCoHoRT(n, *levels, ths)
		if err != nil {
			fatal(err)
		}
	case "pcc":
		cfg = cohort.NewPCC(n)
	case "pendulum":
		mask, err := parseMask(*crit, n)
		if err != nil {
			fatal(err)
		}
		cfg = cohort.NewPENDULUM(mask)
	case "msifcfs":
		cfg = cohort.NewMSIFCFS(n)
	default:
		fatal(fmt.Errorf("unknown system %q", *system))
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
		fatal(err)
	}
	sys, err := cohort.NewSystem(cfg, tr)
	if err != nil {
		fatal(err)
	}
	var (
		reg *obs.Registry
		rec *obs.Recorder
	)
	if cu.OutDir != "" {
		reg = obs.NewRegistry()
		if err := sys.SetMetrics(reg); err != nil {
			fatal(err)
		}
		if *attr {
			if err := sys.RegisterAttribution(reg); err != nil {
				fatal(err)
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
		fatal(err)
	}
	srv, err := cu.StartServer(nil, tracker, log)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	if *chromeFile != "" {
		rec = obs.NewRecorder()
		if err := sys.SetRecorder(rec); err != nil {
			fatal(err)
		}
	}
	var closeVCD func() error
	if *vcdFile != "" {
		f, err := os.Create(*vcdFile)
		if err != nil {
			fatal(err)
		}
		rec, err := cohort.NewVCDRecorder(f, n)
		if err != nil {
			fatal(err)
		}
		if err := sys.SetTracer(rec); err != nil {
			fatal(err)
		}
		closeVCD = func() error {
			if err := rec.Close(); err != nil {
				return err
			}
			return f.Close()
		}
	}
	if *switches != "" {
		for _, part := range strings.Split(*switches, ",") {
			cm := strings.SplitN(part, ":", 2)
			if len(cm) != 2 {
				fatal(fmt.Errorf("bad -switch entry %q (want cycle:mode)", part))
			}
			cyc, err1 := strconv.ParseInt(cm[0], 10, 64)
			mode, err2 := strconv.Atoi(cm[1])
			if err1 != nil || err2 != nil {
				fatal(fmt.Errorf("bad -switch entry %q", part))
			}
			if err := sys.ScheduleModeSwitch(cyc, mode); err != nil {
				fatal(err)
			}
		}
	}
	run, err := sys.Run()
	if err != nil {
		fatal(err)
	}
	rh.Finish()
	if err := sys.CheckCoherence(); err != nil {
		fatal(fmt.Errorf("coherence check failed: %w", err))
	}

	fmt.Printf("workload %s on %s (%d cores, arbiter %s, %s transfers, perfect LLC %v)\n",
		tr.Name, *system, n, cfg.Arbiter, cfg.Transfer, cfg.PerfectLLC)
	fmt.Print(run)
	fmt.Println("per-core WCML (measured vs analytical bound):")
	for i := range run.Cores {
		b := bounds[i]
		bound := "unbounded"
		if b.WCMLBound != cohort.Unbounded {
			bound = fmt.Sprintf("%d", b.WCMLBound)
		}
		fmt.Printf("  core %d (θ=%v): measured %d, bound %s, guaranteed hits %d (achieved %d)\n",
			i, b.Theta, run.Cores[i].TotalLatency, bound, b.MHit, run.Cores[i].Hits)
	}
	if *hist {
		for i := range run.Cores {
			fmt.Printf("core %d latency distribution:\n%s", i, run.Cores[i].Latency.String())
		}
	}
	if *hwOverhead {
		rep, err := cohort.HardwareCost(cfg)
		if err != nil {
			fatal(err)
		}
		fmt.Println(rep)
	}
	if closeVCD != nil {
		if err := closeVCD(); err != nil {
			fatal(err)
		}
		log.Infof("wrote waveform to %s", *vcdFile)
	}
	if rec != nil {
		f, err := os.Create(*chromeFile)
		if err != nil {
			fatal(err)
		}
		if err := rec.WriteChrome(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		log.Infof("wrote chrome trace to %s (load at ui.perfetto.dev)", *chromeFile)
	}
	if reg != nil {
		man := obs.NewManifest("cohort-sim", clk)
		man.Args = os.Args[1:]
		// The key covers the full platform description and the workload
		// content; the simulator is single-threaded, so workers is always 1.
		cfgJSON, err := json.Marshal(cfg)
		if err != nil {
			fatal(err)
		}
		fp := experiments.Fingerprint(tr)
		k := parallel.NewKey("cohort-sim/config").Bytes(cfgJSON).Str(fp).Str(*switches)
		man.ConfigKey = hex.EncodeToString([]byte(k.Sum()))
		man.Traces = []obs.TraceRef{{Name: tr.Name, Fingerprint: fp}}
		man.Seed = int64(*seed)
		man.Workers = 1
		man.Metrics = reg.Snapshot()
		man.Finish(clk)
		path, err := man.Write(cu.OutDir)
		if err != nil {
			fatal(err)
		}
		log.Infof("wrote manifest to %s", path)
	}
}

func loadTrace(path, din, bench string, cores int, scale float64, seed uint64) (*cohort.Trace, error) {
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
	p, err := cohort.ProfileByName(bench)
	if err != nil {
		return nil, err
	}
	return p.Scaled(scale).Generate(cores, 64, seed), nil
}

func parseTimers(s string, n int) ([]cohort.Timer, error) {
	if s == "" {
		out := make([]cohort.Timer, n)
		for i := range out {
			out[i] = 100 // a moderate default
		}
		return out, nil
	}
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

func parseMask(s string, n int) ([]bool, error) {
	out := make([]bool, n)
	if s == "" {
		for i := range out {
			out[i] = true
		}
		return out, nil
	}
	parts := strings.Split(s, ",")
	if len(parts) != n {
		return nil, fmt.Errorf("-crit has %d values for %d cores", len(parts), n)
	}
	for i, p := range parts {
		switch strings.TrimSpace(p) {
		case "1":
			out[i] = true
		case "0":
			out[i] = false
		default:
			return nil, fmt.Errorf("bad criticality flag %q", p)
		}
	}
	return out, nil
}

func fatal(err error) {
	cliutil.Fatal("cohort-sim", err)
}
