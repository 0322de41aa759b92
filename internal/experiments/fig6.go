package experiments

import (
	"fmt"

	"cohort/internal/config"
	"cohort/internal/obs"
	"cohort/internal/stats"
)

// Fig6Row is one benchmark's normalized execution time under each system.
type Fig6Row struct {
	Benchmark string
	// BaselineCycles is the makespan under MSI + FCFS (the normalization
	// baseline).
	BaselineCycles int64
	// Slowdown maps system name → makespan / BaselineCycles.
	CoHoRT, PCC, Pendulum float64
}

// Fig6Result reproduces one sub-figure of Fig. 6: overall execution time
// normalized against standard MSI with a FCFS COTS arbiter. The paper's
// averages are 1.03× (CoHoRT), 1.13× (PCC), 1.50× (PENDULUM) in the all-Cr
// configuration.
type Fig6Result struct {
	Scenario Scenario
	Rows     []Fig6Row
	// AvgCoHoRT/AvgPCC/AvgPendulum are geometric-mean slowdowns.
	AvgCoHoRT, AvgPCC, AvgPendulum float64
}

// Fig6 runs the average-case performance comparison for the named scenario.
func Fig6(o Options, scenarioName string) (*Fig6Result, error) {
	sc, err := ScenarioByName(o.NCores, scenarioName)
	if err != nil {
		return nil, err
	}
	rows, err := perProfile(&o, func(w *workload) (Fig6Row, error) {
		row := Fig6Row{Benchmark: w.tr.Name}
		base, err := runSystem(config.MSIFCFS(o.NCores), w)
		if err != nil {
			return row, fmt.Errorf("fig6 %s msi: %w", w.tr.Name, err)
		}
		row.BaselineCycles = base.Cycles
		_, systems, err := compared(&o, w, sc)
		if err != nil {
			return row, fmt.Errorf("fig6 %w", err)
		}
		for i, dst := range []*float64{&row.CoHoRT, &row.PCC, &row.Pendulum} {
			run, err := runSystem(systems[i], w)
			if err != nil {
				return row, fmt.Errorf("fig6 %s %s: %w", w.tr.Name, sysNames[i], err)
			}
			*dst = float64(run.Cycles) / float64(base.Cycles)
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Fig6Result{Scenario: sc, Rows: rows}
	var ch, pc, pd []float64
	for _, row := range rows {
		ch = append(ch, row.CoHoRT)
		pc = append(pc, row.PCC)
		pd = append(pd, row.Pendulum)
	}
	res.AvgCoHoRT, res.AvgPCC, res.AvgPendulum = geomean(ch), geomean(pc), geomean(pd)
	o.observeFigure("fig6/"+sc.Name, len(rows), func(reg *obs.Registry, lbl obs.Label) {
		reg.FloatGauge("experiments_norm_exec_cohort", lbl).Set(res.AvgCoHoRT)
		reg.FloatGauge("experiments_norm_exec_pcc", lbl).Set(res.AvgPCC)
		reg.FloatGauge("experiments_norm_exec_pendulum", lbl).Set(res.AvgPendulum)
	})
	return res, nil
}

// Render lays the result out like the paper's normalized bars.
func (r *Fig6Result) Render() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Fig. 6 (%s): execution time normalized to MSI+FCFS", r.Scenario.Name),
		"bench", "MSI+FCFS cycles", "CoHoRT", "PCC", "PENDULUM")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark, stats.Cycles(row.BaselineCycles),
			fmt.Sprintf("%.3fx", row.CoHoRT),
			fmt.Sprintf("%.3fx", row.PCC),
			fmt.Sprintf("%.3fx", row.Pendulum))
	}
	t.AddRow("geomean", "",
		fmt.Sprintf("%.3fx", r.AvgCoHoRT),
		fmt.Sprintf("%.3fx", r.AvgPCC),
		fmt.Sprintf("%.3fx", r.AvgPendulum))
	return t
}

// Summary states the headline averages.
func (r *Fig6Result) Summary() string {
	return fmt.Sprintf("Fig. 6 (%s): average slowdown vs MSI+FCFS — CoHoRT %.2fx, PCC %.2fx, PENDULUM %.2fx",
		r.Scenario.Name, r.AvgCoHoRT, r.AvgPCC, r.AvgPendulum)
}
