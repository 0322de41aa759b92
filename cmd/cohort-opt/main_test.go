package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cohort/internal/obs"
)

// TestGolden pins the optimizer's pick byte for byte, and the manifest
// config key an -out-dir run of the same arguments writes: the key is what
// cohort-report groups runs by, so it must not drift.
func TestGolden(t *testing.T) {
	for _, tc := range []struct{ name, args, key string }{
		{"default", "-pop 8 -gens 4 -j 1", "bd0ff9d9a9b441326f8399f475d0af8c66f1d1b1cf15f8ef3eb1935c7e869776"},
		{"timed-gamma", "-timed 1,1,0,0 -gamma 0,2000000,0,0 -pop 8 -gens 4", "ce7d11e3a5d47962f7f32203f6b42894b4f3b5edb457f4c750a6fad0d07e8aac"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var out bytes.Buffer
			if err := run(append(strings.Fields(tc.args), "-out-dir", dir, "-log-level", "off"), &out); err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from the golden:\n--- got ---\n%s\n--- want ---\n%s", out.Bytes(), want)
			}
			ms, err := obs.LoadManifests(dir)
			if err != nil || len(ms) != 1 {
				t.Fatalf("%d manifests, %v", len(ms), err)
			}
			if ms[0].ConfigKey != tc.key {
				t.Errorf("config key %s, want %s", ms[0].ConfigKey, tc.key)
			}
			if traces, _ := filepath.Glob(filepath.Join(dir, "*.trace.json")); len(traces) != 1 {
				t.Errorf("Chrome sidecars %v, want one", traces)
			}
		})
	}
}

// TestRunRejectsBadLists: -timed is a strict 0/1 mask and Γ may not be
// negative; both are errors naming the flag, reported before the search.
func TestRunRejectsBadLists(t *testing.T) {
	for _, tc := range []struct{ args, msg string }{
		{"-timed 1,2,x,0", `bad -timed value "2": want 0 or 1`},
		{"-timed 1,1", "-timed has 2 values for 4 cores"},
		{"-gamma -5,0,0,0", `bad -gamma value "-5": must be at least 0`},
		{"-gamma 0,0,0", "-gamma has 3 values for 4 cores"},
	} {
		var out bytes.Buffer
		err := run(strings.Fields(tc.args), &out)
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: error %v, want %q", tc.args, err, tc.msg)
		}
		if out.Len() != 0 {
			t.Errorf("%s: printed before failing:\n%s", tc.args, out.String())
		}
	}
}
