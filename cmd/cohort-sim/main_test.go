package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cohort/internal/obs"
)

// golden compares got with testdata/<name>.golden byte for byte.
func golden(t *testing.T, name string, got []byte) {
	t.Helper()
	want, err := os.ReadFile(filepath.Join("testdata", name+".golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("%s differs from the golden:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

// TestGolden pins each run's report byte for byte, and the manifest config
// key an -out-dir run of the same arguments writes: the key is what
// cohort-report groups runs by, so it must not drift.
func TestGolden(t *testing.T) {
	for _, tc := range []struct{ name, args, key string }{
		{"hist-hwcost", "-timers 300,20,20,-1 -hist -hwcost", "69a7a50967c5a3b59286a67ed5c688815e4221590e7ab81a84245ec0f9f6a6c4"},
		{"pendulum", "-system pendulum -crit 1,1,0,0", "0b30385f07cb07f56dd3a56b064a4fc18cb10c825d4ff0e65a16296d795f9fe8"},
		{"switch", "-levels 2 -switch 5000:2", "15e8962ea33cab6bf81b0dfd829706ad48c5fb9a696fd86594aa557e4d00354f"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var out bytes.Buffer
			if err := run(append(strings.Fields(tc.args), "-out-dir", dir, "-log-level", "off"), &out); err != nil {
				t.Fatal(err)
			}
			golden(t, tc.name, out.Bytes())
			ms, err := obs.LoadManifests(dir)
			if err != nil || len(ms) != 1 {
				t.Fatalf("%d manifests, %v", len(ms), err)
			}
			if ms[0].ConfigKey != tc.key {
				t.Errorf("config key %s, want %s", ms[0].ConfigKey, tc.key)
			}
		})
	}
}

// TestWaveformDigests pins the -chrome and -vcd files of one run by their
// SHA-256, next to that run's report.
func TestWaveformDigests(t *testing.T) {
	dir := t.TempDir()
	chrome, vcd := filepath.Join(dir, "run.json"), filepath.Join(dir, "run.vcd")
	var out bytes.Buffer
	if err := run([]string{"-timers", "300,20,20,-1", "-chrome", chrome, "-vcd", vcd, "-log-level", "off"}, &out); err != nil {
		t.Fatal(err)
	}
	golden(t, "chrome-vcd", out.Bytes())
	for path, want := range map[string]string{
		chrome: "7046a48de1e6cd5fe1b1efc4f9c679acb1f6bf78e30de4760f529ba5d4b4e9df",
		vcd:    "6aa130e9fc4924fd2481b25502ed58bd556255f60d53212dd90b3bb18fcf3ce2",
	} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != want {
			t.Errorf("%s: sha256 %x, want %s", filepath.Base(path), sum, want)
		}
	}
}

// TestRunRejectsBadLists: every per-core list is checked, whichever
// -system reads it, and a malformed one is an error naming the flag.
func TestRunRejectsBadLists(t *testing.T) {
	for _, tc := range []struct{ args, msg string }{
		{"-crit 1,2,0,0", `bad -crit value "2": want 0 or 1`},
		{"-system pendulum -crit 1,1", "-crit has 2 values for 4 cores"},
		{"-timers 1,2", "-timers has 2 values for 4 cores"},
		{"-system pcc -timers 1,x,1,1", `bad -timers value "x"`},
		{"-switch 5000", `bad -switch value "5000": want cycle:mode`},
		{"-switch 5000:x", `bad -switch value "5000:x"`},
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
