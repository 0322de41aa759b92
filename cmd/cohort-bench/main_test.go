package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cohort/internal/experiments"
	"cohort/internal/obs"
)

// testClock is the fixed clock injected into every test run: manifests must
// be byte-reproducible, and nothing else in the CLI reads wall time.
var testClock = obs.ManualClock{T: time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)}

// update regenerates the golden files: go test ./cmd/cohort-bench -update
var update = flag.Bool("update", false, "rewrite golden files")

// quickArgs keeps the golden runs at test sizing (two benchmarks, small GA).
func quickArgs(extra ...string) []string {
	args := []string{
		"-scale", "0.01", "-cap", "800", "-benches", "fft,water",
		"-pop", "8", "-gens", "6",
	}
	return append(args, extra...)
}

// TestGolden locks the rendered text tables at the byte level: a
// parallelization regression that reorders rows or cells shows up as a
// golden-file diff. Each experiment is rendered twice — serial (-j 1) and
// parallel (-j 8) — and both must match the golden byte for byte.
func TestGolden(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"table1", []string{"-run", "table1"}},
		{"fig5a", quickArgs("-run", "fig5a")},
		{"fig6a", quickArgs("-run", "fig6a")},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			experiments.ResetMemo()
			var serial bytes.Buffer
			if err := run(append(tc.args, "-j", "1"), &serial, testClock); err != nil {
				t.Fatalf("run -j 1: %v", err)
			}
			experiments.ResetMemo()
			var par bytes.Buffer
			if err := run(append(tc.args, "-j", "8"), &par, testClock); err != nil {
				t.Fatalf("run -j 8: %v", err)
			}
			if !bytes.Equal(serial.Bytes(), par.Bytes()) {
				t.Fatalf("-j 1 and -j 8 output differ:\n--- j1 ---\n%s\n--- j8 ---\n%s", serial.Bytes(), par.Bytes())
			}

			golden := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, serial.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("reading golden (run with -update to create): %v", err)
			}
			if !bytes.Equal(serial.Bytes(), want) {
				t.Errorf("output differs from %s (re-run with -update if the change is intended):\n--- got ---\n%s\n--- want ---\n%s",
					golden, serial.Bytes(), want)
			}
		})
	}
}

// TestRunRejectsUnknownExperiment covers the CLI's selector validation.
func TestRunRejectsUnknownExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-run", "fig9z"}, &out, testClock); err == nil {
		t.Fatal("expected an error for an unknown experiment name")
	}
}

// TestRunRejectsInvalidSizing pins that sizing no experiment can run is an
// error, not a silently floored one-access-per-core workload or an ignored
// cap.
func TestRunRejectsInvalidSizing(t *testing.T) {
	for _, bad := range [][]string{
		{"-scale", "0"}, {"-scale", "-1"}, {"-scale", "NaN"}, {"-cap", "-5"},
	} {
		var out bytes.Buffer
		if err := run(quickArgs(append([]string{"-run", "fig5a"}, bad...)...), &out, testClock); err == nil {
			t.Errorf("%v accepted", bad)
		}
		if out.Len() != 0 {
			t.Errorf("%v printed tables before failing:\n%s", bad, out.String())
		}
	}
}

// TestRunAllFollowsRegistry pins that -run all runs every registry entry
// once, in registry order: its output is the concatenation of the entries'
// individual outputs.
func TestRunAllFollowsRegistry(t *testing.T) {
	experiments.ResetMemo()
	var all bytes.Buffer
	if err := run(quickArgs("-run", "all", "-j", "2"), &all, testClock); err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	for _, f := range experiments.All() {
		if err := run(quickArgs("-run", f.Name, "-j", "2"), &want, testClock); err != nil {
			t.Fatalf("-run %s: %v", f.Name, err)
		}
	}
	if !bytes.Equal(all.Bytes(), want.Bytes()) {
		t.Fatalf("-run all differs from the registry entries run in order:\n--- all ---\n%s\n--- entries ---\n%s", all.Bytes(), want.Bytes())
	}
}

// TestManifestAndTraceWritten drives the -out-dir path end to end: the run
// must leave a schema-valid manifest and a Chrome trace in the directory,
// and the manifest's metrics snapshot must be byte-identical between -j 1
// and -j 8 (the config key is shared, only the file's j suffix differs).
func TestManifestAndTraceWritten(t *testing.T) {
	dir := t.TempDir()
	runOnce := func(jobs string) *obs.Manifest {
		t.Helper()
		experiments.ResetMemo()
		var out bytes.Buffer
		if err := run(quickArgs("-run", "fig5a", "-j", jobs, "-out-dir", dir), &out, testClock); err != nil {
			t.Fatalf("run -j %s: %v", jobs, err)
		}
		ms, err := obs.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range ms {
			if m.Workers == 1 && jobs == "1" || m.Workers == 8 && jobs == "8" {
				return m
			}
		}
		t.Fatalf("no manifest for -j %s in %v", jobs, ms)
		return nil
	}
	serial := runOnce("1")
	par := runOnce("8")

	if serial.Tool != "cohort-bench" {
		t.Errorf("tool = %q", serial.Tool)
	}
	if serial.ConfigKey != par.ConfigKey {
		t.Errorf("config keys differ across worker counts: %s vs %s", serial.ConfigKey, par.ConfigKey)
	}
	if len(serial.Traces) != 2 {
		t.Errorf("expected 2 trace refs (fft, water), got %+v", serial.Traces)
	}
	if serial.Engine == nil || serial.Engine.Jobs == 0 {
		t.Errorf("engine counters missing: %+v", serial.Engine)
	}
	sm, pm := serial.Metrics.JSON(), par.Metrics.JSON()
	if !bytes.Equal(sm, pm) {
		t.Errorf("manifest metrics differ across worker counts:\n--- j1 ---\n%s\n--- j8 ---\n%s", sm, pm)
	}
	if _, ok := serial.Metrics.Get("experiments_figures_total"); !ok {
		t.Errorf("metrics snapshot missing figure counter:\n%s", serial.Metrics.String())
	}

	traces, err := filepath.Glob(filepath.Join(dir, "*.trace.json"))
	if err != nil || len(traces) == 0 {
		t.Fatalf("no chrome trace written (err %v)", err)
	}
	b, err := os.ReadFile(traces[0])
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"traceEvents"`) || !strings.Contains(string(b), "fig5/all-cr") {
		t.Errorf("chrome trace missing expected content:\n%s", b)
	}
}

// TestPprofFlagsWriteProfiles exercises the satellite profiling flags.
func TestPprofFlagsWriteProfiles(t *testing.T) {
	dir := t.TempDir()
	cpu := filepath.Join(dir, "cpu.pprof")
	mem := filepath.Join(dir, "mem.pprof")
	experiments.ResetMemo()
	var out bytes.Buffer
	if err := run(quickArgs("-run", "table1", "-cpuprofile", cpu, "-memprofile", mem), &out, testClock); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{cpu, mem} {
		st, err := os.Stat(p)
		if err != nil {
			t.Fatalf("profile not written: %v", err)
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
}

// TestAttributionExperiment drives -run attribution end to end: the rendered
// table and summary cover all three systems, and with -out-dir the manifest
// carries the decomposition rows (schema-validated by LoadDir).
func TestAttributionExperiment(t *testing.T) {
	dir := t.TempDir()
	experiments.ResetMemo()
	var out bytes.Buffer
	if err := run(quickArgs("-run", "attribution", "-benches", "fft", "-out-dir", dir), &out, testClock); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{"WCML attribution", "CoHoRT", "PCC", "PENDULUM", "timer-protection stalls"} {
		if !strings.Contains(got, want) {
			t.Fatalf("output missing %q:\n%s", want, got)
		}
	}

	ms, err := obs.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("manifests = %d", len(ms))
	}
	rows := ms[0].Attribution
	if len(rows) == 0 {
		t.Fatal("manifest has no attribution rows")
	}
	for _, r := range rows {
		if sum := r.Arbitration + r.TimerStall + r.Transfer + r.DRAM + r.HitCycles; sum != r.TotalLatency {
			t.Fatalf("row %+v violates the decomposition identity", r)
		}
	}
}

// TestListenServesDuringRun starts a run with -listen on an ephemeral port
// and scrapes all four endpoint families while it executes. The bound
// address is discovered by polling the tracker-free startup log line.
func TestListenServesDuringRun(t *testing.T) {
	// The in-process variant can't easily scrape mid-run (run() blocks and
	// closes the server on return); the obs package tests cover the server
	// itself and CI scrapes a live cohort-bench run. Here we only pin that
	// -listen on a bad address fails fast instead of being ignored.
	var out bytes.Buffer
	if err := run(quickArgs("-run", "table1", "-listen", "256.0.0.1:0"), &out, testClock); err == nil {
		t.Fatal("bad -listen address accepted")
	}
}
