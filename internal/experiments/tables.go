package experiments

import (
	"fmt"

	"cohort/internal/config"
	"cohort/internal/obs"
	"cohort/internal/stats"
)

// Table1 renders the qualitative challenge matrix of Table I: which MCS
// challenges each family of predictable-coherence work addresses.
func Table1() *stats.Table {
	t := stats.NewTable("Table I: predictable coherence works vs MCS challenges",
		"work", "heterogeneity", "criticality", "requirements", "mode switching")
	t.AddRow("PMSI-family [10-12,15,21,22,24]", "no", "no", "no", "no")
	t.AddRow("CARP [13] / PENDULUM [16]", "no", "limited", "no", "no")
	t.AddRow("PENDULUM* [17]", "no", "no", "yes", "no")
	t.AddRow("CoHoRT (this repo)", "yes", "yes", "optimized", "yes")
	return t
}

// Table2Row is one mode's optimized timer vector.
type Table2Row struct {
	Mode   int
	Timers []config.Timer
	// Objective is the GA objective value at this vector.
	Objective float64
}

// Table2Result regenerates Table II through the offline flow of Fig. 2a:
// the optimization engine runs once per mode over the tasks with
// criticality ≥ that mode (the rest are fixed to MSI).
type Table2Result struct {
	Benchmark string
	Rows      []Table2Row
}

// Table2 runs the per-mode optimization for a benchmark. Core i gets
// criticality N−i (c0 highest), matching the paper's experiment.
func Table2(o Options, benchmark string) (*Table2Result, error) {
	// One GA run per mode; the modes are independent optimization problems.
	var modes []int
	for m := 1; m <= o.NCores; m++ {
		modes = append(modes, m)
	}
	rows, err := sweep(&o, []string{benchmark}, modes, func(w *workload, m int) (Table2Row, error) {
		timed := make([]bool, o.NCores)
		for i := range timed {
			timed[i] = o.NCores-i >= m // core i has criticality N−i
		}
		ga, err := optimizeTimers(&o, w, timed)
		if err != nil {
			return Table2Row{}, fmt.Errorf("table2 mode %d: %w", m, err)
		}
		return Table2Row{Mode: m, Timers: ga.Timers, Objective: ga.Eval.Objective}, nil
	})
	if err != nil {
		return nil, err
	}
	res := &Table2Result{Benchmark: benchmark, Rows: rows}
	o.observeFigure("table2/"+benchmark, len(rows), func(reg *obs.Registry, lbl obs.Label) {
		for _, row := range res.Rows {
			reg.FloatGauge("experiments_table2_objective",
				lbl, obs.L("mode", fmt.Sprintf("%d", row.Mode))).Set(row.Objective)
		}
	})
	return res, nil
}

// Render lays the result out in the paper's Table II shape.
func (r *Table2Result) Render() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Table II (regenerated by the optimization engine, %s)", r.Benchmark),
		"m", "θ0", "θ1", "θ2", "θ3", "objective (cyc/req)")
	for _, row := range r.Rows {
		cells := []string{fmt.Sprintf("%d", row.Mode)}
		for _, th := range row.Timers {
			cells = append(cells, th.String())
		}
		cells = append(cells, fmt.Sprintf("%.1f", row.Objective))
		t.AddRow(cells...)
	}
	return t
}
