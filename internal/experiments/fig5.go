package experiments

import (
	"fmt"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/obs"
	"cohort/internal/stats"
)

// SystemWCML holds the per-core experimental (measured) and analytical
// WCML of one system on one benchmark — one group of bars in Fig. 5.
type SystemWCML struct {
	// Exp is the measured total memory latency per core (solid bars).
	Exp []int64
	// Bound is the analytical WCML bound per core (T bars);
	// analysis.Unbounded for cores without a bound.
	Bound []int64
}

// Fig5Row is one benchmark's result across the three systems.
type Fig5Row struct {
	Benchmark string
	Timers    []config.Timer // CoHoRT's optimized timers
	CoHoRT    SystemWCML
	PCC       SystemWCML
	Pendulum  SystemWCML
}

// Fig5Result reproduces one sub-figure of Fig. 5 (one criticality scenario).
type Fig5Result struct {
	Scenario Scenario
	Rows     []Fig5Row
	// PCCRatio and PendulumRatio are geometric means over benchmarks and
	// critical cores of bound(baseline)/bound(CoHoRT) — the paper's
	// "CoHoRT is K× tighter" numbers (2.15× vs PCC and ~16× vs PENDULUM in
	// Fig. 5a, ~6× in 5b, ~18× in 5c).
	PCCRatio      float64
	PendulumRatio float64
}

// Fig5 runs the WCML comparison of CoHoRT against PCC and PENDULUM for the
// named scenario ("all-cr", "2cr-2ncr", "1cr-3ncr").
func Fig5(o Options, scenarioName string) (*Fig5Result, error) {
	sc, err := ScenarioByName(o.NCores, scenarioName)
	if err != nil {
		return nil, err
	}
	rows, err := perProfile(&o, func(w *workload) (Fig5Row, error) {
		timers, systems, err := compared(&o, w, sc)
		if err != nil {
			return Fig5Row{}, fmt.Errorf("fig5 %w", err)
		}
		row := Fig5Row{Benchmark: w.tr.Name, Timers: timers}
		for i, dst := range []*SystemWCML{&row.CoHoRT, &row.PCC, &row.Pendulum} {
			if *dst, err = measureWCML(systems[i], &o, w); err != nil {
				return row, fmt.Errorf("fig5 %s %s: %w", w.tr.Name, sysNames[i], err)
			}
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig5Result{Scenario: sc, Rows: rows}
	var pccRatios, pendRatios []float64
	for _, row := range rows {
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
	o.observeFigure("fig5/"+sc.Name, len(rows), func(reg *obs.Registry, lbl obs.Label) {
		reg.FloatGauge("experiments_pcc_bound_ratio", lbl).Set(res.PCCRatio)
		reg.FloatGauge("experiments_pendulum_bound_ratio", lbl).Set(res.PendulumRatio)
	})
	return res, nil
}

// sysNames fixes the order of the three compared systems in compared's
// configs and in the attribution rows and shares.
var sysNames = []string{"CoHoRT", "PCC", "PENDULUM"}

// compared returns the three systems Fig. 5 and Fig. 6 compare, in sysNames
// order — CoHoRT with GA-optimized timers on the scenario's critical cores
// (MSI elsewhere), PCC, and PENDULUM — plus CoHoRT's timers.
func compared(o *Options, w *workload, sc Scenario) ([]config.Timer, []*config.System, error) {
	ga, err := optimizeTimers(o, w, sc.Critical)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", w.tr.Name, err)
	}
	cohortCfg, err := config.CoHoRT(o.NCores, 1, ga.Timers)
	if err != nil {
		return nil, nil, err
	}
	return ga.Timers, []*config.System{cohortCfg, config.PCC(o.NCores), config.PENDULUM(sc.Critical)}, nil
}

// measureWCML runs one system and pairs the measured per-core total memory
// latency with its analytical bound.
func measureWCML(cfg *config.System, o *Options, w *workload) (SystemWCML, error) {
	bounds, err := analysis.Bounds(cfg, w.tr)
	if err != nil {
		return SystemWCML{}, err
	}
	run, err := runSystem(cfg, w)
	if err != nil {
		return SystemWCML{}, err
	}
	out := SystemWCML{
		Exp:   make([]int64, o.NCores),
		Bound: make([]int64, o.NCores),
	}
	for i := 0; i < o.NCores; i++ {
		out.Exp[i] = run.Cores[i].TotalLatency
		out.Bound[i] = bounds[i].WCMLBound
		if out.Bound[i] != analysis.Unbounded && out.Exp[i] > out.Bound[i] {
			return SystemWCML{}, fmt.Errorf("core %d: measured WCML %d exceeds bound %d", i, out.Exp[i], out.Bound[i])
		}
	}
	return out, nil
}

// Render lays the result out as the paper's grouped bars, one row per
// (benchmark, core).
func (r *Fig5Result) Render() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Fig. 5 (%s): per-core WCML, experimental / analytical (cycles)", r.Scenario.Name),
		"bench", "core", "crit", "CoHoRT exp", "CoHoRT bound", "PCC exp", "PCC bound", "PENDULUM exp", "PENDULUM bound")
	fmtBound := func(v int64) string {
		if v == analysis.Unbounded {
			return "unbounded"
		}
		return stats.Cycles(v)
	}
	for _, row := range r.Rows {
		for i := range row.CoHoRT.Exp {
			crit := "nCr"
			if r.Scenario.Critical[i] {
				crit = "Cr"
			}
			t.AddRow(row.Benchmark, fmt.Sprintf("c%d", i), crit,
				stats.Cycles(row.CoHoRT.Exp[i]), fmtBound(row.CoHoRT.Bound[i]),
				stats.Cycles(row.PCC.Exp[i]), fmtBound(row.PCC.Bound[i]),
				stats.Cycles(row.Pendulum.Exp[i]), fmtBound(row.Pendulum.Bound[i]))
		}
	}
	return t
}

// Summary states the headline ratios.
func (r *Fig5Result) Summary() string {
	return fmt.Sprintf("Fig. 5 (%s): CoHoRT bounds are %.2fx tighter than PCC and %.2fx tighter than PENDULUM (geomean over critical cores)",
		r.Scenario.Name, r.PCCRatio, r.PendulumRatio)
}
