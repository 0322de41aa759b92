package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// vet runs the command and returns its exit status, stdout and stderr.
func vet(t *testing.T, args ...string) (int, string, string) {
	t.Helper()
	var stdout, stderr bytes.Buffer
	code := exitCode(run(args, &stdout), &stderr)
	return code, stdout.String(), stderr.String()
}

// skipShort skips the cases that type-check the whole module.
func skipShort(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short mode")
	}
}

// TestCleanRepoJSON: the repository lints clean, and -json - writes the
// report to stdout ahead of the ok line.
func TestCleanRepoJSON(t *testing.T) {
	skipShort(t)
	code, out, errOut := vet(t, "-json", "-", "cohort/...")
	if code != 0 || errOut != "" {
		t.Fatalf("exit %d, stderr %q, want 0 and none", code, errOut)
	}
	dec := json.NewDecoder(strings.NewReader(out))
	var rep report
	if err := dec.Decode(&rep); err != nil {
		t.Fatalf("stdout does not start with a JSON report: %v\n%s", err, out)
	}
	if rep.Packages == 0 || len(rep.Analyzers) != 15 || len(rep.Findings) != 0 || rep.Baseline != nil {
		t.Errorf("report = %+v, want packages, 15 analyzers, no findings and no baseline", rep)
	}
	rest := out[dec.InputOffset():]
	if !strings.HasPrefix(strings.TrimSpace(rest), "cohort-vet: ok (") ||
		!strings.Contains(rest, " 12 contract packages, 15 analyzers)") {
		t.Errorf("after the report, stdout = %q, want the ok line", rest)
	}
}

// TestStaleBaselineFails: a baseline entry whose finding no longer fires is
// a violation until pruned.
func TestStaleBaselineFails(t *testing.T) {
	skipShort(t)
	path := filepath.Join(t.TempDir(), "lint.baseline")
	entry := "walltime\tinternal/sched/gone.go\twall-clock read time.Now in simulator code"
	if err := os.WriteFile(path, []byte(entry+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	code, out, errOut := vet(t, "-only", "walltime", "-baseline", path, "cohort/...")
	if code != 1 {
		t.Fatalf("exit %d, want 1", code)
	}
	if !strings.Contains(out, "stale baseline entry") || !strings.Contains(out, "gone.go") {
		t.Errorf("stdout %q does not name the stale entry", out)
	}
	if !strings.Contains(errOut, "cohort-vet: 1 violation(s)") {
		t.Errorf("stderr %q, want the violation count", errOut)
	}
}

// TestUsageErrors: bad analyzer names and a baseline write with nowhere to
// write exit 2 before loading anything.
func TestUsageErrors(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-only", "nosuch"}, `cohort-vet: -only names unknown analyzer(s) [nosuch]`},
		{[]string{"-write-baseline"}, "cohort-vet: -write-baseline requires -baseline <file>"},
	} {
		code, out, errOut := vet(t, tc.args...)
		if code != 2 || out != "" || !strings.Contains(errOut, tc.msg) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want 2, none, %q", tc.args, code, out, errOut, tc.msg)
		}
	}
}

// TestList names and describes every analyzer, one per line.
func TestList(t *testing.T) {
	code, out, _ := vet(t, "-list")
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if code != 0 || len(lines) != 15 {
		t.Fatalf("exit %d, %d lines, want 0 and 15:\n%s", code, len(lines), out)
	}
	for _, l := range lines {
		if name, doc, _ := strings.Cut(l, " "); name == "" || strings.TrimSpace(doc) == "" {
			t.Errorf("line %q lacks a name or a description", l)
		}
	}
}
