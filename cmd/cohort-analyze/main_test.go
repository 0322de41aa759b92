package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestGolden pins the report byte for byte: the per-core bounds, the θ_is
// sweep, the schedulability verdicts and the hardware bill.
func TestGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run(strings.Fields("-timers 300,20,20,-1 -sweep -deadlines 200000,0,0,0"), &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "sweep-deadlines.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from the golden:\n--- got ---\n%s\n--- want ---\n%s", out.Bytes(), want)
	}
}

// TestRunRejectsBadLists: a malformed per-core list is an error naming the
// flag, reported before anything is printed.
func TestRunRejectsBadLists(t *testing.T) {
	for _, tc := range []struct{ args, msg string }{
		{"-timers 1,2", "-timers has 2 values for 4 cores"},
		{"-timers 1,x,1,1", `bad -timers value "x"`},
		{"-deadlines 1,-1,0,0", `bad -deadlines value "-1"`},
		{"-deadlines 1,1", "-deadlines has 2 values for 4 cores"},
		{"-cores 2 -timers 300,20,1,1", "-timers has 4 values for 2 cores"},
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
