package experiments

import (
	"fmt"
	"slices"

	"cohort/internal/config"
	"cohort/internal/obs"
	"cohort/internal/stats"
)

// AttributionRow is one (benchmark, system, core) cell of the WCML latency
// attribution: the core's total memory latency decomposed into hit service,
// arbitration wait, timer-protection stall, bus transfer and DRAM fetch
// (stats.Attribution, DESIGN.md §15). The components sum exactly to
// TotalLatency.
type AttributionRow struct {
	Benchmark string
	System    string // "CoHoRT", "PCC" or "PENDULUM"
	Core      int
	Critical  bool
	Misses    int64
	// Component cycle totals over all of the core's misses, plus the hit
	// cycles (Hits × L_hit) completing the decomposition of TotalLatency.
	Arbitration int64
	TimerStall  int64
	Transfer    int64
	DRAM        int64
	HitCycles   int64
	Total       int64
}

// AttributionResult is the per-request latency attribution of one
// criticality scenario across CoHoRT, PCC and PENDULUM — where each
// system's memory latency actually goes, the observability companion to
// Fig. 5's how-much comparison.
type AttributionResult struct {
	Scenario Scenario
	Rows     []AttributionRow
	// TimerStallShare is each system's timer-protection-stall fraction of
	// critical-core miss latency, keyed in sysNames order. CoHoRT's timers
	// trade exactly this component against hit retention.
	TimerStallShare map[string]float64
}

// Attribution decomposes every core's measured memory latency under the
// named scenario for the three compared systems. It reuses the memoized
// optimizeTimers/runSystem primitives — after a Fig. 5 run of the same
// options every cell is memo-served, so the attribution is an exact
// decomposition of the very runs Fig. 5 measured, not a re-simulation that
// could drift.
func Attribution(o Options, scenarioName string) (*AttributionResult, error) {
	sc, err := ScenarioByName(o.NCores, scenarioName)
	if err != nil {
		return nil, err
	}
	rows, err := perProfile(&o, func(w *workload) ([]AttributionRow, error) {
		_, systems, err := compared(&o, w, sc)
		if err != nil {
			return nil, fmt.Errorf("attribution %w", err)
		}
		var out []AttributionRow
		for si, cfg := range systems {
			rs, err := attributeSystem(cfg, sysNames[si], sc.Critical, w)
			if err != nil {
				return nil, fmt.Errorf("attribution %s %s: %w", w.tr.Name, sysNames[si], err)
			}
			out = append(out, rs...)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	res := &AttributionResult{Scenario: sc, Rows: slices.Concat(rows...)}

	// Critical-core timer-stall share per system: stalls ÷ total miss
	// latency (total minus hit cycles).
	res.TimerStallShare = make(map[string]float64, len(sysNames))
	for _, sys := range sysNames {
		var stall, miss int64
		for _, r := range res.Rows {
			if r.System != sys || !r.Critical {
				continue
			}
			stall += r.TimerStall
			miss += r.Total - r.HitCycles
		}
		if miss > 0 {
			res.TimerStallShare[sys] = float64(stall) / float64(miss)
		}
	}

	o.observeFigure("attribution/"+sc.Name, len(rows), func(reg *obs.Registry, lbl obs.Label) {
		for _, sys := range sysNames {
			reg.FloatGauge("experiments_timer_stall_share",
				lbl, obs.L("system", sys)).Set(res.TimerStallShare[sys])
		}
	})
	return res, nil
}

// attributeSystem runs (or memo-fetches) one system and lays its per-core
// attribution out as rows. The row identity — components plus hit cycles
// equal total latency — is checked here, so a decomposition bug surfaces as
// a hard error, never as a silently wrong table.
func attributeSystem(cfg *config.System, system string, critical []bool, w *workload) ([]AttributionRow, error) {
	run, err := runSystem(cfg, w)
	if err != nil {
		return nil, err
	}
	rows := make([]AttributionRow, len(run.Cores))
	for i := range run.Cores {
		c := &run.Cores[i]
		r := AttributionRow{
			Benchmark:   w.tr.Name,
			System:      system,
			Core:        i,
			Critical:    critical[i],
			Misses:      c.Misses,
			Arbitration: c.Attr.ArbitrationCycles,
			TimerStall:  c.Attr.TimerStallCycles,
			Transfer:    c.Attr.TransferCycles,
			DRAM:        c.Attr.DRAMCycles,
			HitCycles:   c.Hits * cfg.Lat.Hit,
			Total:       c.TotalLatency,
		}
		if sum := r.Arbitration + r.TimerStall + r.Transfer + r.DRAM + r.HitCycles; sum != r.Total {
			return nil, fmt.Errorf("core %d: attribution components sum to %d, total latency %d", i, sum, r.Total)
		}
		rows[i] = r
	}
	return rows, nil
}

// ManifestRows converts the result into the run-manifest representation
// (obs.AttributionRow), preserving row order.
func (r *AttributionResult) ManifestRows() []obs.AttributionRow {
	out := make([]obs.AttributionRow, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = obs.AttributionRow{
			Benchmark:    row.Benchmark,
			System:       row.System,
			Core:         row.Core,
			Critical:     row.Critical,
			Misses:       row.Misses,
			Arbitration:  row.Arbitration,
			TimerStall:   row.TimerStall,
			Transfer:     row.Transfer,
			DRAM:         row.DRAM,
			HitCycles:    row.HitCycles,
			TotalLatency: row.Total,
		}
	}
	return out
}

// pct renders a component as its percentage of the total latency.
func pct(part, total int64) string {
	if total == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f%%", 100*float64(part)/float64(total))
}

// Render lays the attribution out with one row per (benchmark, system,
// core): absolute cycle totals and each component's share of the total.
func (r *AttributionResult) Render() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("WCML attribution (%s): where each core's memory latency goes (cycles, share of total)", r.Scenario.Name),
		"bench", "system", "core", "crit", "total", "hit", "arb", "timer", "xfer", "dram",
		"arb%", "timer%", "xfer%", "dram%")
	for _, row := range r.Rows {
		crit := "nCr"
		if row.Critical {
			crit = "Cr"
		}
		t.AddRow(row.Benchmark, row.System, fmt.Sprintf("c%d", row.Core), crit,
			stats.Cycles(row.Total), stats.Cycles(row.HitCycles),
			stats.Cycles(row.Arbitration), stats.Cycles(row.TimerStall),
			stats.Cycles(row.Transfer), stats.Cycles(row.DRAM),
			pct(row.Arbitration, row.Total), pct(row.TimerStall, row.Total),
			pct(row.Transfer, row.Total), pct(row.DRAM, row.Total))
	}
	return t
}

// Summary states the headline timer-stall shares.
func (r *AttributionResult) Summary() string {
	return fmt.Sprintf("Attribution (%s): timer-protection stalls are %.1f%% of critical-core miss latency under CoHoRT, %.1f%% under PCC, %.1f%% under PENDULUM",
		r.Scenario.Name,
		100*r.TimerStallShare["CoHoRT"], 100*r.TimerStallShare["PCC"], 100*r.TimerStallShare["PENDULUM"])
}
