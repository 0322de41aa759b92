// Package stats collects simulation measurements (per-core latency and
// hit/miss accounting, bus utilization) and renders aligned text/markdown
// tables for the experiment harness.
package stats

import (
	"fmt"
	"strings"
)

// Core aggregates the measurements of one core over a run.
type Core struct {
	// Accesses is the number of completed memory accesses.
	Accesses int64
	// Hits and Misses partition Accesses by private-cache outcome.
	Hits, Misses int64
	// TotalLatency is the summed per-access latency in cycles — the
	// experimental (measured) total memory latency of the task, the solid
	// bars of Fig. 5.
	TotalLatency int64
	// MaxMissLatency is the largest single miss latency observed.
	MaxMissLatency int64
	// FinishCycle is when the core completed its stream.
	FinishCycle int64
	// Writebacks counts dirty evictions from the private cache.
	Writebacks int64
	// Invalidations counts lines lost to remote requests or back-invalidation.
	Invalidations int64
	// Upgrades counts S→M transitions that required a bus transaction.
	Upgrades int64
	// Latency is the per-access latency distribution.
	Latency Histogram
	// Attr decomposes the miss latency into arbitration / timer-stall /
	// transfer / DRAM components (see Attribution).
	Attr Attribution
}

// RecordAccess folds one completed access into the counters.
func (c *Core) RecordAccess(hit bool, latency int64) {
	c.Accesses++
	c.TotalLatency += latency
	c.Latency.Observe(latency)
	if hit {
		c.Hits++
		return
	}
	c.Misses++
	if latency > c.MaxMissLatency {
		c.MaxMissLatency = latency
	}
}

// HitRate returns hits/accesses (0 when idle).
func (c *Core) HitRate() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.Hits) / float64(c.Accesses)
}

// AvgLatency returns the mean per-access latency.
func (c *Core) AvgLatency() float64 {
	if c.Accesses == 0 {
		return 0
	}
	return float64(c.TotalLatency) / float64(c.Accesses)
}

// Run aggregates a whole simulation.
type Run struct {
	// Cores holds per-core measurements.
	Cores []Core
	// Cycles is the makespan: the cycle the last core finished.
	Cycles int64
	// BusBusy is the number of cycles the bus was occupied.
	BusBusy int64
	// Transactions counts bus transactions (broadcasts and data transfers).
	Transactions int64
	// ModeSwitches counts run-time mode changes.
	ModeSwitches int64
}

// NewRun returns a Run sized for n cores.
func NewRun(n int) *Run { return &Run{Cores: make([]Core, n)} }

// TotalAccesses sums accesses over all cores.
func (r *Run) TotalAccesses() int64 {
	var n int64
	for i := range r.Cores {
		n += r.Cores[i].Accesses
	}
	return n
}

// BusUtilization returns BusBusy/Cycles.
func (r *Run) BusUtilization() float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(r.BusBusy) / float64(r.Cycles)
}

// String renders a compact human-readable report.
func (r *Run) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "run: %d cycles, bus %.1f%% busy, %d transactions\n",
		r.Cycles, 100*r.BusUtilization(), r.Transactions)
	for i := range r.Cores {
		c := &r.Cores[i]
		fmt.Fprintf(&b, "  core %d: %d accesses (%.1f%% hits), total latency %d, max miss %d, finished @%d\n",
			i, c.Accesses, 100*c.HitRate(), c.TotalLatency, c.MaxMissLatency, c.FinishCycle)
	}
	return b.String()
}

// Table renders aligned columns as plain text or markdown. Used by the
// experiment harness to print the paper's tables.
type Table struct {
	Title   string
	headers []string
	rows    [][]string
}

// NewTable creates a table with the given column headers.
func NewTable(title string, headers ...string) *Table {
	return &Table{Title: title, headers: headers}
}

// AddRow appends a row; short rows are padded with empty cells.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.headers))
	copy(row, cells)
	t.rows = append(t.rows, row)
}

func (t *Table) widths() []int {
	w := make([]int, len(t.headers))
	for i, h := range t.headers {
		w[i] = len(h)
	}
	for _, row := range t.rows {
		for i, c := range row {
			if len(c) > w[i] {
				w[i] = len(c)
			}
		}
	}
	return w
}

// String renders the table as aligned plain text.
func (t *Table) String() string {
	w := t.widths()
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", w[i], c)
		}
		b.WriteString("\n")
	}
	line(t.headers)
	sep := make([]string, len(t.headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", w[i])
	}
	line(sep)
	for _, row := range t.rows {
		line(row)
	}
	return b.String()
}

// Markdown renders the table as GitHub-flavored markdown.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	b.WriteString("| " + strings.Join(t.headers, " | ") + " |\n")
	b.WriteString("|" + strings.Repeat("---|", len(t.headers)) + "\n")
	for _, row := range t.rows {
		b.WriteString("| " + strings.Join(row, " | ") + " |\n")
	}
	return b.String()
}

// Ratio formats a/b as "N.NNx"; "inf" when b is 0.
func Ratio(a, b float64) string {
	if b == 0 {
		return "inf"
	}
	return fmt.Sprintf("%.2fx", a/b)
}

// Cycles formats a cycle count with thousands separators for readability.
func Cycles(v int64) string {
	s := fmt.Sprintf("%d", v)
	neg := false
	if strings.HasPrefix(s, "-") {
		neg = true
		s = s[1:]
	}
	var parts []string
	for len(s) > 3 {
		parts = append([]string{s[len(s)-3:]}, parts...)
		s = s[:len(s)-3]
	}
	parts = append([]string{s}, parts...)
	out := strings.Join(parts, ",")
	if neg {
		out = "-" + out
	}
	return out
}
