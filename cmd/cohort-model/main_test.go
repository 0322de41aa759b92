package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmokeGolden pins the depth-2 smoke exploration's verdict byte for
// byte: the state and run counts move with any change to the explored
// state space.
func TestSmokeGolden(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-smoke", "-depth", "2", "-q"}, &out); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "smoke-depth2.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), want) {
		t.Errorf("output differs from the golden:\n--- got ---\n%s\n--- want ---\n%s", out.Bytes(), want)
	}
}

// TestRunRejectsBadMenus: a malformed -gaps or -offsets element is an error
// naming the flag.
func TestRunRejectsBadMenus(t *testing.T) {
	for _, tc := range []struct{ args, msg string }{
		{"-smoke -gaps 1,x", `bad -gaps value "x"`},
		{"-smoke -offsets 0,,2", `bad -offsets value ""`},
	} {
		var out bytes.Buffer
		err := run(strings.Fields(tc.args), &out)
		if err == nil || !strings.Contains(err.Error(), tc.msg) {
			t.Errorf("%s: error %v, want %q", tc.args, err, tc.msg)
		}
	}
}
