package experiments

import (
	"fmt"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/stats"
)

// ArbiterAblationRow measures one arbitration policy on one benchmark.
type ArbiterAblationRow struct {
	Benchmark string
	Arbiter   config.Arbiter
	Cycles    int64
	MaxMiss   int64 // worst per-request latency observed on any core
	BusUtil   float64
}

// ArbiterAblation quantifies the arbitration design choice (§III-B): RROF
// against plain RR, FCFS and TDM with identical timers — TDM's idle slots
// are where PENDULUM's Fig. 6 slowdown comes from.
type ArbiterAblation struct {
	Timers []config.Timer
	Rows   []ArbiterAblationRow
}

// AblationArbiter runs the sweep with a fixed moderate timer vector.
func AblationArbiter(o Options) (*ArbiterAblation, error) {
	arbiters := []config.Arbiter{config.ArbiterRROF, config.ArbiterRR, config.ArbiterFCFS, config.ArbiterTDM}
	rows, err := sweep(&o, nil, arbiters, func(w *workload, arb config.Arbiter) (ArbiterAblationRow, error) {
		cfg, err := config.CoHoRT(o.NCores, 1, uniform(o.NCores, 50))
		if err != nil {
			return ArbiterAblationRow{}, err
		}
		cfg.Arbiter = arb
		run, err := runSystem(cfg, w)
		if err != nil {
			return ArbiterAblationRow{}, fmt.Errorf("arbiter ablation %s/%s: %w", w.tr.Name, arb, err)
		}
		return ArbiterAblationRow{Benchmark: w.tr.Name, Arbiter: arb, Cycles: run.Cycles,
			MaxMiss: maxMissLatency(run), BusUtil: run.BusUtilization()}, nil
	})
	if err != nil {
		return nil, err
	}
	return &ArbiterAblation{Timers: uniform(o.NCores, 50), Rows: rows}, nil
}

// uniform returns an n-core timer vector with every core at θ.
func uniform(n int, theta config.Timer) []config.Timer {
	timers := make([]config.Timer, n)
	for i := range timers {
		timers[i] = theta
	}
	return timers
}

// maxMissLatency is the worst per-request latency observed on any core.
func maxMissLatency(run *stats.Run) int64 {
	var m int64
	for i := range run.Cores {
		m = max(m, run.Cores[i].MaxMissLatency)
	}
	return m
}

// Render lays out the arbiter sweep.
func (r *ArbiterAblation) Render() *stats.Table {
	t := stats.NewTable("Ablation: arbitration policy (uniform θ=50)",
		"bench", "arbiter", "makespan", "max per-request latency", "bus util")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark, row.Arbiter.String(),
			stats.Cycles(row.Cycles), stats.Cycles(row.MaxMiss),
			fmt.Sprintf("%.1f%%", 100*row.BusUtil))
	}
	return t
}

// TransferAblationRow measures one handover policy on one benchmark.
type TransferAblationRow struct {
	Benchmark string
	Transfer  config.Transfer
	Cycles    int64
	MaxMiss   int64
}

// TransferAblation quantifies the direct vs via-memory handover choice —
// the structural difference between CoHoRT/MSI and the PCC baseline.
type TransferAblation struct {
	Rows []TransferAblationRow
}

// AblationTransfer runs the sweep with all-MSI cores under RROF.
func AblationTransfer(o Options) (*TransferAblation, error) {
	transfers := []config.Transfer{config.TransferDirect, config.TransferViaMemory}
	rows, err := sweep(&o, nil, transfers, func(w *workload, tp config.Transfer) (TransferAblationRow, error) {
		cfg := config.PaperDefaults(o.NCores, 1)
		cfg.Transfer = tp
		run, err := runSystem(cfg, w)
		if err != nil {
			return TransferAblationRow{}, fmt.Errorf("transfer ablation %s/%s: %w", w.tr.Name, tp, err)
		}
		return TransferAblationRow{
			Benchmark: w.tr.Name, Transfer: tp, Cycles: run.Cycles, MaxMiss: maxMissLatency(run),
		}, nil
	})
	if err != nil {
		return nil, err
	}
	return &TransferAblation{Rows: rows}, nil
}

// Render lays out the transfer sweep.
func (r *TransferAblation) Render() *stats.Table {
	t := stats.NewTable("Ablation: ownership handover policy (all cores MSI, RROF)",
		"bench", "transfer", "makespan", "max per-request latency")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark, row.Transfer.String(),
			stats.Cycles(row.Cycles), stats.Cycles(row.MaxMiss))
	}
	return t
}

// TimerSweepRow measures one uniform timer value on one benchmark.
type TimerSweepRow struct {
	Benchmark string
	Theta     config.Timer
	// Hits is the total measured hits over all cores.
	Hits int64
	// Cycles is the makespan.
	Cycles int64
	// WCL is the Eq. 1 per-request bound at this θ.
	WCL int64
	// AvgBound is Σ_i WCML_i/Λ_i — the optimizer's objective.
	AvgBound float64
}

// TimerSweep quantifies the central trade-off of the paper (Fig. 1 and
// §III-A): growing θ protects more hits (better average case) while
// inflating every other core's worst-case latency. The optimizer's job is
// to sit at the knee of this curve.
type TimerSweep struct {
	Rows []TimerSweepRow
}

// AblationTimer sweeps a uniform θ over all cores.
func AblationTimer(o Options, thetas []config.Timer) (*TimerSweep, error) {
	if len(thetas) == 0 {
		thetas = []config.Timer{1, 10, 50, 100, 500, 1000, 5000}
	}
	rows, err := sweep(&o, nil, thetas, func(w *workload, th config.Timer) (TimerSweepRow, error) {
		cfg, err := config.CoHoRT(o.NCores, 1, uniform(o.NCores, th))
		if err != nil {
			return TimerSweepRow{}, err
		}
		bounds, err := analysis.Bounds(cfg, w.tr)
		if err != nil {
			return TimerSweepRow{}, err
		}
		run, err := runSystem(cfg, w)
		if err != nil {
			return TimerSweepRow{}, fmt.Errorf("timer sweep %s/θ=%d: %w", w.tr.Name, th, err)
		}
		row := TimerSweepRow{Benchmark: w.tr.Name, Theta: th, Cycles: run.Cycles, WCL: bounds[0].WCL}
		for i := range run.Cores {
			row.Hits += run.Cores[i].Hits
			row.AvgBound += float64(bounds[i].WCMLBound) / float64(w.tr.Lambda(i))
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &TimerSweep{Rows: rows}, nil
}

// Render lays out the timer sweep.
func (r *TimerSweep) Render() *stats.Table {
	t := stats.NewTable("Ablation: uniform timer sweep (trade-off of Fig. 1)",
		"bench", "θ", "total hits", "makespan", "WCL (Eq.1)", "avg WCML bound / req")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark, row.Theta.String(),
			stats.Cycles(row.Hits), stats.Cycles(row.Cycles),
			stats.Cycles(row.WCL), fmt.Sprintf("%.1f", row.AvgBound))
	}
	return t
}

// SnoopAblationRow measures one snooping protocol family on one benchmark.
type SnoopAblationRow struct {
	Benchmark string
	Snoop     config.Snoop
	Cycles    int64
	Upgrades  int64 // total S→M bus transactions
	Hits      int64
}

// SnoopAblation quantifies the MESI extension: the Exclusive state removes
// the upgrade transaction for private read-then-write patterns. The paper's
// protocols are MSI-based; MESI composes with the timers unchanged and is
// provided as the natural snooping-family extension.
type SnoopAblation struct {
	Rows []SnoopAblationRow
}

// AblationSnoop runs the MSI-vs-MESI sweep with all cores in snooping mode.
func AblationSnoop(o Options) (*SnoopAblation, error) {
	snoops := []config.Snoop{config.SnoopMSI, config.SnoopMESI}
	rows, err := sweep(&o, nil, snoops, func(w *workload, sp config.Snoop) (SnoopAblationRow, error) {
		cfg := config.PaperDefaults(o.NCores, 1)
		cfg.Snoop = sp
		run, err := runSystem(cfg, w)
		if err != nil {
			return SnoopAblationRow{}, fmt.Errorf("snoop ablation %s/%s: %w", w.tr.Name, sp, err)
		}
		row := SnoopAblationRow{Benchmark: w.tr.Name, Snoop: sp, Cycles: run.Cycles}
		for i := range run.Cores {
			row.Upgrades += run.Cores[i].Upgrades
			row.Hits += run.Cores[i].Hits
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &SnoopAblation{Rows: rows}, nil
}

// Render lays out the snoop-protocol sweep.
func (r *SnoopAblation) Render() *stats.Table {
	t := stats.NewTable("Ablation: snooping protocol family (all cores snooping, RROF)",
		"bench", "protocol", "makespan", "upgrade transactions", "total hits")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark, row.Snoop.String(),
			stats.Cycles(row.Cycles), stats.Cycles(row.Upgrades), stats.Cycles(row.Hits))
	}
	return t
}

// L1WaysRow measures one L1 associativity on one benchmark.
type L1WaysRow struct {
	Benchmark string
	Ways      int
	// GuaranteedHits sums M_hit over cores at a uniform θ.
	GuaranteedHits int64
	// MeasuredHits sums achieved hits.
	MeasuredHits int64
	Cycles       int64
}

// L1WaysAblation varies the private-cache associativity at fixed capacity:
// the paper evaluates a direct-mapped L1 (ways = 1); higher associativity
// removes conflict misses from both the guarantee and the measurement. The
// timer machinery is unaffected — the countdown counters are per line.
type L1WaysAblation struct {
	Theta config.Timer
	Rows  []L1WaysRow
}

// AblationL1Ways sweeps the associativity with a uniform timer.
func AblationL1Ways(o Options, theta config.Timer, ways []int) (*L1WaysAblation, error) {
	if len(ways) == 0 {
		ways = []int{1, 2, 4}
	}
	rows, err := sweep(&o, nil, ways, func(w *workload, ways int) (L1WaysRow, error) {
		cfg, err := config.CoHoRT(o.NCores, 1, uniform(o.NCores, theta))
		if err != nil {
			return L1WaysRow{}, err
		}
		cfg.L1.Ways = ways
		if err := cfg.Validate(); err != nil {
			return L1WaysRow{}, fmt.Errorf("l1 ways ablation: %w", err)
		}
		bounds, err := analysis.Bounds(cfg, w.tr)
		if err != nil {
			return L1WaysRow{}, err
		}
		run, err := runSystem(cfg, w)
		if err != nil {
			return L1WaysRow{}, fmt.Errorf("l1 ways ablation %s/%d: %w", w.tr.Name, ways, err)
		}
		row := L1WaysRow{Benchmark: w.tr.Name, Ways: ways, Cycles: run.Cycles}
		for i := range run.Cores {
			row.GuaranteedHits += bounds[i].MHit
			row.MeasuredHits += run.Cores[i].Hits
		}
		return row, nil
	})
	if err != nil {
		return nil, err
	}
	return &L1WaysAblation{Theta: theta, Rows: rows}, nil
}

// Render lays out the associativity sweep.
func (r *L1WaysAblation) Render() *stats.Table {
	t := stats.NewTable(
		fmt.Sprintf("Ablation: L1 associativity at fixed capacity (uniform θ=%v)", r.Theta),
		"bench", "ways", "guaranteed hits", "measured hits", "makespan")
	for _, row := range r.Rows {
		t.AddRow(row.Benchmark, fmt.Sprintf("%d", row.Ways),
			stats.Cycles(row.GuaranteedHits), stats.Cycles(row.MeasuredHits),
			stats.Cycles(row.Cycles))
	}
	return t
}

// NonBlockingRow measures one cache-blocking mode on one benchmark.
type NonBlockingRow struct {
	Benchmark string
	Blocking  bool
	Cycles    int64
}

// NonBlockingAblation quantifies the hits-over-misses design of the paper's
// non-blocking private caches (§VIII) against a blocking L1.
type NonBlockingAblation struct {
	Rows []NonBlockingRow
}

// AblationNonBlocking runs the sweep with a uniform timer.
func AblationNonBlocking(o Options) (*NonBlockingAblation, error) {
	rows, err := sweep(&o, nil, []bool{false, true}, func(w *workload, blocking bool) (NonBlockingRow, error) {
		cfg, err := config.CoHoRT(o.NCores, 1, uniform(o.NCores, 100))
		if err != nil {
			return NonBlockingRow{}, err
		}
		cfg.BlockingCaches = blocking
		run, err := runSystem(cfg, w)
		if err != nil {
			return NonBlockingRow{}, fmt.Errorf("nonblocking ablation %s/%v: %w", w.tr.Name, blocking, err)
		}
		return NonBlockingRow{Benchmark: w.tr.Name, Blocking: blocking, Cycles: run.Cycles}, nil
	})
	if err != nil {
		return nil, err
	}
	return &NonBlockingAblation{Rows: rows}, nil
}

// Render lays out the blocking-mode sweep.
func (r *NonBlockingAblation) Render() *stats.Table {
	t := stats.NewTable("Ablation: non-blocking L1 (hits-over-misses) vs blocking",
		"bench", "L1 mode", "makespan")
	for _, row := range r.Rows {
		mode := "non-blocking"
		if row.Blocking {
			mode = "blocking"
		}
		t.AddRow(row.Benchmark, mode, stats.Cycles(row.Cycles))
	}
	return t
}
