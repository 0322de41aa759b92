package stats

import (
	"strings"
	"testing"
)

func TestRecordAccess(t *testing.T) {
	var c Core
	c.RecordAccess(true, 1)
	c.RecordAccess(false, 100)
	c.RecordAccess(false, 60)
	if c.Accesses != 3 || c.Hits != 1 || c.Misses != 2 {
		t.Fatalf("counts: %+v", c)
	}
	if c.TotalLatency != 161 {
		t.Fatalf("TotalLatency = %d", c.TotalLatency)
	}
	if c.MaxMissLatency != 100 {
		t.Fatalf("MaxMissLatency = %d", c.MaxMissLatency)
	}
	if got := c.HitRate(); got < 0.333 || got > 0.334 {
		t.Fatalf("HitRate = %f", got)
	}
	if got := c.AvgLatency(); got < 53.6 || got > 53.7 {
		t.Fatalf("AvgLatency = %f", got)
	}
}

func TestEmptyCoreRates(t *testing.T) {
	var c Core
	if c.HitRate() != 0 || c.AvgLatency() != 0 {
		t.Fatal("empty core must report zero rates")
	}
}

func TestRunAggregates(t *testing.T) {
	r := NewRun(2)
	r.Cores[0].RecordAccess(true, 1)
	r.Cores[1].RecordAccess(false, 54)
	r.Cycles = 100
	r.BusBusy = 54
	if r.TotalAccesses() != 2 {
		t.Fatalf("TotalAccesses = %d", r.TotalAccesses())
	}
	if got := r.BusUtilization(); got != 0.54 {
		t.Fatalf("BusUtilization = %f", got)
	}
	var empty Run
	if empty.BusUtilization() != 0 {
		t.Fatal("zero-cycle run utilization must be 0")
	}
	out := r.String()
	if !strings.Contains(out, "core 0") || !strings.Contains(out, "core 1") {
		t.Fatalf("String missing cores:\n%s", out)
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("Demo", "bench", "value")
	tb.AddRow("fft", "1.23x")
	tb.AddRow("ocean") // short row padded
	txt := tb.String()
	if !strings.Contains(txt, "Demo") || !strings.Contains(txt, "fft") {
		t.Fatalf("text table:\n%s", txt)
	}
	lines := strings.Split(strings.TrimRight(txt, "\n"), "\n")
	// Title + header + separator + 2 rows.
	if len(lines) != 5 {
		t.Fatalf("line count = %d:\n%s", len(lines), txt)
	}
	// Aligned: header and rows have same rendered width.
	if len(lines[1]) != len(lines[2]) {
		t.Fatalf("misaligned header/separator:\n%s", txt)
	}
	md := tb.Markdown()
	if !strings.Contains(md, "| bench | value |") || !strings.Contains(md, "|---|---|") {
		t.Fatalf("markdown table:\n%s", md)
	}
	if !strings.Contains(md, "### Demo") {
		t.Fatalf("markdown missing title:\n%s", md)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(3, 2) != "1.50x" {
		t.Fatalf("Ratio = %s", Ratio(3, 2))
	}
	if Ratio(1, 0) != "inf" {
		t.Fatalf("Ratio(1,0) = %s", Ratio(1, 0))
	}
}

func TestCyclesFormatting(t *testing.T) {
	cases := map[int64]string{
		0:        "0",
		999:      "999",
		1000:     "1,000",
		1234567:  "1,234,567",
		-4321:    "-4,321",
		-100:     "-100",
		10000000: "10,000,000",
	}
	for in, want := range cases {
		if got := Cycles(in); got != want {
			t.Errorf("Cycles(%d) = %q, want %q", in, got, want)
		}
	}
}
