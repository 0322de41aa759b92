package main

import (
	"fmt"
	"math"
	"strings"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/experiments"
	"cohort/internal/trace"
)

// workload is one artifact the benchmark regenerates. run drives the public
// experiment runner exactly as cmd/cohort-bench does; compose rebuilds the
// same cells from the layer functions so that every layer call can be
// wrapped in a span. Both return the same structured result type, and
// render turns that result into the bytes cohort-bench writes to stdout.
type workload struct {
	name string
	// scale and capAccesses size the traces (cohort-bench -scale / -cap).
	scale       float64
	capAccesses int
	run         func(o experiments.Options) (any, error)
	compose     func(l *layers) (any, error)
	render      func(res any) string
	// digest42 is the SHA-256 of cohort-bench's stdout for this workload at
	// seed 42 (see README.md for the commands that produce it).
	digest42 string
}

// Cold one-shot GA problems: about two thirds of the CPU is the optimizer
// on the scalar oracle, and the rest is 24 full-system runs.
var fig5aCold = workload{
	name:        "fig5a-cold",
	scale:       0.05,
	capAccesses: 4000,
	run: func(o experiments.Options) (any, error) {
		return experiments.Fig5(o, "all-cr")
	},
	compose: composeFig5,
	render: func(res any) string {
		r := res.(*experiments.Fig5Result)
		return r.Render().String() + "\n" + r.Summary() + "\n\n"
	},
	digest42: "2a0a8d62a2eb15e45d757bbcb47148682f883eff6da65d8265642f612e20c52e",
}

// 32 GA problems where each trace's streams serve four modes, and no
// full-system simulation: the oracle layer in the regime where reuse across
// problems can pay off.
var table2Modes = workload{
	name:        "table2-modes",
	scale:       0.05,
	capAccesses: 4000,
	run: func(o experiments.Options) (any, error) {
		var out []*experiments.Table2Result
		for _, name := range trace.ProfileNames() {
			r, err := experiments.Table2(o, name)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
		return out, nil
	},
	compose: composeTable2,
	render: func(res any) string {
		var b strings.Builder
		for _, r := range res.([]*experiments.Table2Result) {
			b.WriteString(r.Render().String())
			b.WriteString("\n")
		}
		return b.String()
	},
	digest42: "0f9e55c7b8b03e2b14e8cf898240b077558a24eefece45b821cf96ec3f02905b",
}

// 56 full-system runs at 4x the default trace length, with the working set
// well past the L1, and no optimizer: simulation and trace generation
// dominate, and θ spans broadcast-heavy to protected-hit-heavy behaviour.
var timerSweep4x = workload{
	name:        "timer-sweep-4x",
	scale:       0.2,
	capAccesses: 16000,
	run: func(o experiments.Options) (any, error) {
		return experiments.AblationTimer(o, nil)
	},
	compose: composeTimerSweep,
	render: func(res any) string {
		return res.(*experiments.TimerSweep).Render().String() + "\n"
	},
	digest42: "9e775fe49b2795b46414b5b6a97a8338b901cf6ef2310858366cb3334e16801a",
}

var workloads = []workload{fig5aCold, table2Modes, timerSweep4x}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (known: %s)", name, strings.Join(names, ", "))
}

// options returns the settings cohort-bench uses for this workload, with the
// given trace seed and worker count for both the cell pool and the GA.
func (w workload) options(seed uint64, workers int) experiments.Options {
	o := experiments.DefaultOptions()
	o.Scale = w.scale
	o.MaxAccessesPerCore = w.capAccesses
	o.Seed = seed
	o.Jobs, o.GA.Workers = workers, workers
	o.GA.OracleCurve = true // cohort-bench's -curve default
	return o
}

// timerSweepThetas is AblationTimer's default θ set.
var timerSweepThetas = []config.Timer{1, 10, 50, 100, 500, 1000, 5000}

// profiles resolves the full profile suite with the options' sizing, as the
// experiment runners do.
func profiles(o experiments.Options) ([]trace.Profile, error) {
	var out []trace.Profile
	for _, name := range trace.ProfileNames() {
		p, err := profile(o, name)
		if err != nil {
			return nil, err
		}
		out = append(out, p)
	}
	return out, nil
}

func profile(o experiments.Options, name string) (trace.Profile, error) {
	p, err := trace.ProfileByName(name)
	if err != nil {
		return trace.Profile{}, err
	}
	p = p.Scaled(o.Scale)
	if o.MaxAccessesPerCore > 0 && p.AccessesPerCore > o.MaxAccessesPerCore {
		p.AccessesPerCore = o.MaxAccessesPerCore
	}
	return p, nil
}

// composeFig5 is experiments.Fig5(o, "all-cr") on the layer functions.
func composeFig5(l *layers) (any, error) {
	sc, err := experiments.ScenarioByName(l.o.NCores, "all-cr")
	if err != nil {
		return nil, err
	}
	ps, err := profiles(l.o)
	if err != nil {
		return nil, err
	}
	res := &experiments.Fig5Result{Scenario: sc}
	for _, p := range ps {
		id := l.tr.begin("cell")
		row, err := l.fig5Row(p, sc)
		l.tr.end(id)
		if err != nil {
			return nil, err
		}
		res.Rows = append(res.Rows, row)
	}
	var pccRatios, pendRatios []float64
	for _, row := range res.Rows {
		for i, cr := range sc.Critical {
			if !cr || row.CoHoRT.Bound[i] <= 0 {
				continue
			}
			if row.PCC.Bound[i] > 0 {
				pccRatios = append(pccRatios, float64(row.PCC.Bound[i])/float64(row.CoHoRT.Bound[i]))
			}
			if row.Pendulum.Bound[i] > 0 {
				pendRatios = append(pendRatios, float64(row.Pendulum.Bound[i])/float64(row.CoHoRT.Bound[i]))
			}
		}
	}
	res.PCCRatio = geomean(pccRatios)
	res.PendulumRatio = geomean(pendRatios)
	return res, nil
}

func (l *layers) fig5Row(p trace.Profile, sc experiments.Scenario) (experiments.Fig5Row, error) {
	tr := l.generate(p)
	row := experiments.Fig5Row{Benchmark: p.Name}
	ga, err := l.optimize(tr, sc.Critical)
	if err != nil {
		return row, fmt.Errorf("fig5 %s: %w", p.Name, err)
	}
	row.Timers = ga.Timers
	cohortCfg, err := config.CoHoRT(l.o.NCores, 1, ga.Timers)
	if err != nil {
		return row, err
	}
	if row.CoHoRT, err = l.measureWCML(cohortCfg, tr); err != nil {
		return row, fmt.Errorf("fig5 %s cohort: %w", p.Name, err)
	}
	if row.PCC, err = l.measureWCML(config.PCC(l.o.NCores), tr); err != nil {
		return row, fmt.Errorf("fig5 %s pcc: %w", p.Name, err)
	}
	if row.Pendulum, err = l.measureWCML(config.PENDULUM(sc.Critical), tr); err != nil {
		return row, fmt.Errorf("fig5 %s pendulum: %w", p.Name, err)
	}
	return row, nil
}

// measureWCML pairs one system's measured per-core latency with its bound
// and fails when a measurement exceeds its bound, as the runner does.
func (l *layers) measureWCML(cfg *config.System, tr *trace.Trace) (experiments.SystemWCML, error) {
	bounds, err := l.bounds(cfg, tr)
	if err != nil {
		return experiments.SystemWCML{}, err
	}
	run, err := l.simulate(cfg, tr)
	if err != nil {
		return experiments.SystemWCML{}, err
	}
	out := experiments.SystemWCML{Exp: make([]int64, l.o.NCores), Bound: make([]int64, l.o.NCores)}
	for i := 0; i < l.o.NCores; i++ {
		out.Exp[i] = run.Cores[i].TotalLatency
		out.Bound[i] = bounds[i].WCMLBound
		if out.Bound[i] != analysis.Unbounded && out.Exp[i] > out.Bound[i] {
			return experiments.SystemWCML{}, fmt.Errorf("core %d: measured WCML %d exceeds bound %d", i, out.Exp[i], out.Bound[i])
		}
	}
	return out, nil
}

// composeTable2 is experiments.Table2 over every profile, in suite order.
// Core i has criticality N−i, and mode m times the cores with criticality
// at least m.
func composeTable2(l *layers) (any, error) {
	ps, err := profiles(l.o)
	if err != nil {
		return nil, err
	}
	var out []*experiments.Table2Result
	for _, p := range ps {
		tr := l.generate(p)
		res := &experiments.Table2Result{Benchmark: p.Name}
		for m := 1; m <= l.o.NCores; m++ {
			timed := make([]bool, l.o.NCores)
			for i := range timed {
				timed[i] = l.o.NCores-i >= m
			}
			id := l.tr.begin("cell")
			ga, err := l.optimize(tr, timed)
			l.tr.end(id)
			if err != nil {
				return nil, fmt.Errorf("table2 mode %d: %w", m, err)
			}
			res.Rows = append(res.Rows, experiments.Table2Row{Mode: m, Timers: ga.Timers, Objective: ga.Eval.Objective})
		}
		out = append(out, res)
	}
	return out, nil
}

// composeTimerSweep is experiments.AblationTimer(o, nil): every
// (profile, θ) cell regenerates its trace, as the runner does.
func composeTimerSweep(l *layers) (any, error) {
	ps, err := profiles(l.o)
	if err != nil {
		return nil, err
	}
	res := &experiments.TimerSweep{}
	for _, p := range ps {
		for _, th := range timerSweepThetas {
			id := l.tr.begin("cell")
			row, err := l.timerSweepRow(p, th)
			l.tr.end(id)
			if err != nil {
				return nil, err
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

func (l *layers) timerSweepRow(p trace.Profile, th config.Timer) (experiments.TimerSweepRow, error) {
	tr := l.generate(p)
	timers := make([]config.Timer, l.o.NCores)
	for i := range timers {
		timers[i] = th
	}
	cfg, err := config.CoHoRT(l.o.NCores, 1, timers)
	if err != nil {
		return experiments.TimerSweepRow{}, err
	}
	bounds, err := l.bounds(cfg, tr)
	if err != nil {
		return experiments.TimerSweepRow{}, err
	}
	run, err := l.simulate(cfg, tr)
	if err != nil {
		return experiments.TimerSweepRow{}, fmt.Errorf("timer sweep %s/θ=%d: %w", p.Name, th, err)
	}
	row := experiments.TimerSweepRow{Benchmark: p.Name, Theta: th, Cycles: run.Cycles, WCL: bounds[0].WCL}
	for i := range run.Cores {
		row.Hits += run.Cores[i].Hits
		row.AvgBound += float64(bounds[i].WCMLBound) / float64(tr.Lambda(i))
	}
	return row, nil
}

// geomean is the runners' geometric mean: 0 when empty or when any value is
// not positive.
func geomean(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	logSum := 0.0
	for _, v := range vs {
		if v <= 0 {
			return 0
		}
		logSum += math.Log(v)
	}
	return math.Exp(logSum / float64(len(vs)))
}
