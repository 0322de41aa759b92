package obs

import (
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestLoggerTextByteIdentical pins the compatibility contract: text mode
// emits exactly fmt.Sprintf(format, args...) plus a newline, byte for byte
// what the pre-logger fmt.Fprintf call sites produced.
func TestLoggerTextByteIdentical(t *testing.T) {
	cases := []struct {
		format string
		args   []any
	}{
		{"wrote manifest to %s", []any{"out/manifest.json"}},
		{"gen %3d/%d  best WCML %d", []any{7, 40, 1234}},
		{"%6.2f%% done", []any{99.5}},
		{"plain message, no args", nil},
	}
	var b strings.Builder
	log := NewLogger(&b, LevelInfo, false, "cohort-bench", nil)
	var want strings.Builder
	for _, c := range cases {
		log.Infof(c.format, c.args...)
		fmt.Fprintf(&want, c.format+"\n", c.args...)
	}
	if b.String() != want.String() {
		t.Errorf("text mode diverged from fmt.Fprintf:\n--- got ---\n%s--- want ---\n%s", b.String(), want.String())
	}
}

func TestLoggerJSON(t *testing.T) {
	clk := ManualClock{T: time.Date(2026, 8, 8, 15, 4, 5, 0, time.UTC)}
	var b strings.Builder
	log := NewLogger(&b, LevelInfo, true, "cohort-opt", clk)
	log.Infof("gen %d/%d", 3, 40)
	want := `{"ts":"2026-08-08T15:04:05Z","level":"info","tool":"cohort-opt","msg":"gen 3/40"}` + "\n"
	if b.String() != want {
		t.Errorf("JSON record:\n got %q\nwant %q", b.String(), want)
	}
}

func TestLoggerLevels(t *testing.T) {
	var b strings.Builder
	log := NewLogger(&b, LevelWarn, false, "t", nil)
	log.Infof("hidden")
	log.Errorf("visible error")
	if got, want := b.String(), "visible error\n"; got != want {
		t.Errorf("level gating: got %q, want %q", got, want)
	}

	b.Reset()
	off := NewLogger(&b, LevelOff, false, "t", nil)
	off.Errorf("never")
	if b.Len() != 0 {
		t.Errorf("LevelOff emitted %q", b.String())
	}
}

func TestLoggerNil(t *testing.T) {
	var log *Logger
	log.Infof("no panic %d", 1)
	log.Errorf("no panic")
}

func TestParseLogLevel(t *testing.T) {
	cases := map[string]LogLevel{
		"debug":   LevelDebug,
		"info":    LevelInfo,
		"":        LevelInfo,
		"Warn":    LevelWarn,
		"WARNING": LevelWarn,
		"error":   LevelError,
		"off":     LevelOff,
		"none":    LevelOff,
	}
	for in, want := range cases {
		got, err := ParseLogLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLogLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLogLevel("verbose"); err == nil {
		t.Errorf("ParseLogLevel(verbose) accepted")
	}
	if LevelDebug.String() != "debug" || LevelOff.String() != "off" {
		t.Errorf("String(): %q %q", LevelDebug, LevelOff)
	}
}
