package cliutil

import (
	"bytes"
	"errors"
	"flag"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"cohort/internal/config"
	"cohort/internal/obs"
	"cohort/internal/trace"
)

func testLogger(t *testing.T, buf *bytes.Buffer, c *Common) *obs.Logger {
	t.Helper()
	log, err := c.Logger(buf, obs.ManualClock{T: time.Unix(0, 0).UTC()})
	if err != nil {
		t.Fatalf("Logger: %v", err)
	}
	return log
}

// TestFlagMatrix parses the flag vectors the shipping tools accept, each
// registering the groups its run function really registers (cohort-bench:
// work, obs, profile; cohort-opt: all four; cohort-sim: obs and workload;
// cohort-analyze and cohort-trace: workload), and checks every value lands
// in the right field with the right default. The matrix pins the
// shared-surface contract: same flag names, same defaults, same semantics,
// whichever tool registers them.
func TestFlagMatrix(t *testing.T) {
	type groups struct{ work, obs, profile, workload bool }
	cases := []struct {
		tool string
		reg  groups
		args []string
		want Common
	}{
		{
			tool: "cohort-sim",
			reg:  groups{obs: true, workload: true},
			args: []string{"-out-dir", "art", "-listen", ":0", "-bench", "lu", "-cores", "2"},
			want: Common{OutDir: "art", Listen: ":0", LogLevel: "info", Bench: "lu", Cores: 2, Scale: 0.05, Seed: 42},
		},
		{
			tool: "cohort-bench",
			reg:  groups{work: true, obs: true, profile: true},
			args: []string{"-j", "4", "-log-level", "debug", "-log-json", "-memprofile", "mem.out"},
			want: Common{Jobs: 4, Curve: true, LogLevel: "debug", LogJSON: true, MemProfile: "mem.out"},
		},
		{
			tool: "cohort-opt",
			reg:  groups{work: true, obs: true, profile: true, workload: true},
			args: nil, // defaults only: curve oracle on, surrogate off
			want: Common{Curve: true, LogLevel: "info", Bench: "fft", Cores: 4, Scale: 0.05, Seed: 42},
		},
		{
			tool: "cohort-opt",
			reg:  groups{work: true, obs: true, profile: true, workload: true},
			args: []string{"-curve=false", "-surrogate", "-cpuprofile", "cpu.out", "-seed", "7"},
			want: Common{Curve: false, Surrogate: true, LogLevel: "info", CPUProfile: "cpu.out", Bench: "fft", Cores: 4, Scale: 0.05, Seed: 7},
		},
		{
			tool: "cohort-analyze",
			reg:  groups{workload: true},
			args: []string{"-scale", "0.5"},
			want: Common{Bench: "fft", Cores: 4, Scale: 0.5, Seed: 42},
		},
		{
			tool: "cohort-trace",
			reg:  groups{workload: true},
			args: nil,
			want: Common{Bench: "fft", Cores: 4, Scale: 0.05, Seed: 42},
		},
	}
	register := func(c *Common, fs *flag.FlagSet, g groups) {
		if g.work {
			c.RegisterWork(fs)
		}
		if g.obs {
			c.RegisterObs(fs)
		}
		if g.profile {
			c.RegisterProfile(fs)
		}
		if g.workload {
			c.RegisterWorkload(fs)
		}
	}
	for _, tc := range cases {
		t.Run(tc.tool, func(t *testing.T) {
			c := New(tc.tool)
			fs := flag.NewFlagSet(tc.tool, flag.ContinueOnError)
			fs.SetOutput(io.Discard)
			register(c, fs, tc.reg)
			if err := fs.Parse(tc.args); err != nil {
				t.Fatalf("parse %v: %v", tc.args, err)
			}
			tc.want.Tool = tc.tool
			if *c != tc.want {
				t.Errorf("parsed %v:\n got  %+v\n want %+v", tc.args, *c, tc.want)
			}
		})
	}
	// A group a tool does not register must reject its flags with a usage
	// error (exit status 2): cohort-sim has no worker pool and no profiler,
	// cohort-bench generates no single workload, and no tool offers -batch.
	for _, tc := range []struct {
		tool string
		reg  groups
		args []string
	}{
		{"cohort-sim", groups{obs: true, workload: true}, []string{"-j", "4"}},
		{"cohort-sim", groups{obs: true, workload: true}, []string{"-cpuprofile", "x"}},
		{"cohort-bench", groups{work: true, obs: true, profile: true}, []string{"-cores", "2"}},
		{"cohort-bench", groups{work: true, obs: true, profile: true}, []string{"-batch", "16"}},
	} {
		c := New(tc.tool)
		fs := flag.NewFlagSet(tc.tool, flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		register(c, fs, tc.reg)
		if got := exitCode(tc.tool, Parse(fs, tc.args), io.Discard); got != 2 {
			t.Errorf("%s %v: exit status %d, want 2", tc.tool, tc.args, got)
		}
	}
}

// TestStartServerLifecycle covers the -listen path end to end: the server
// starts, logs its bound address, serves, and Close tears it down.
func TestStartServerLifecycle(t *testing.T) {
	c := New("cohort-test")
	c.Listen = "127.0.0.1:0"
	c.LogLevel = "info"
	var buf bytes.Buffer
	log := testLogger(t, &buf, c)

	srv, err := c.StartServer(nil, nil, log)
	if err != nil {
		t.Fatalf("StartServer: %v", err)
	}
	if srv == nil {
		t.Fatal("StartServer returned nil server for a set -listen")
	}
	defer srv.Close()

	if !strings.Contains(buf.String(), srv.Addr()) {
		t.Errorf("bound address %q not logged in %q", srv.Addr(), buf.String())
	}
	resp, err := http.Get("http://" + srv.Addr() + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/healthz status = %d", resp.StatusCode)
	}

	if err := srv.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if _, err := http.Get("http://" + srv.Addr() + "/healthz"); err == nil {
		t.Errorf("server still serving after Close")
	}
}

// TestStartServerDisabled: without -listen the accessor returns (nil, nil)
// and the nil server's Close stays a safe no-op, so tools can defer
// unconditionally.
func TestStartServerDisabled(t *testing.T) {
	c := New("cohort-test")
	var buf bytes.Buffer
	log := testLogger(t, &buf, c)
	srv, err := c.StartServer(nil, nil, log)
	if err != nil || srv != nil {
		t.Fatalf("StartServer without -listen = (%v, %v), want (nil, nil)", srv, err)
	}
	if err := srv.Close(); err != nil {
		t.Fatalf("nil server Close: %v", err)
	}
	if buf.Len() != 0 {
		t.Errorf("disabled server logged %q", buf.String())
	}
}

// TestStartServerBadAddress: an unbindable address is a startup error the
// tool reports, not a silent skip.
func TestStartServerBadAddress(t *testing.T) {
	c := New("cohort-test")
	c.Listen = "256.256.256.256:http"
	var buf bytes.Buffer
	log := testLogger(t, &buf, c)
	if srv, err := c.StartServer(nil, nil, log); err == nil {
		srv.Close()
		t.Fatal("StartServer bound an impossible address")
	}
}

// TestLoggerJSONInterplay: -log-json flips the logger's wire format while
// -log-level keeps gating it, and an unknown level is a startup error.
func TestLoggerJSONInterplay(t *testing.T) {
	c := New("cohort-test")
	c.LogLevel = "info"
	c.LogJSON = true
	var buf bytes.Buffer
	log := testLogger(t, &buf, c)
	log.Infof("hello %d", 7)
	line := strings.TrimSpace(buf.String())
	if !strings.HasPrefix(line, "{") || !strings.Contains(line, `"msg":"hello 7"`) {
		t.Errorf("-log-json line = %q, want JSON with msg field", line)
	}
	if !strings.Contains(line, `"tool":"cohort-test"`) {
		t.Errorf("JSON line %q missing tool attribution", line)
	}

	buf.Reset()
	c.LogJSON = false
	log = testLogger(t, &buf, c)
	log.Infof("hello %d", 7)
	if got := buf.String(); strings.HasPrefix(strings.TrimSpace(got), "{") {
		t.Errorf("text-mode line %q is JSON", got)
	}

	c.LogLevel = "verbose"
	if _, err := c.Logger(io.Discard, obs.WallClock{}); err == nil {
		t.Error("unknown -log-level accepted")
	}

	// Level gating applies in both formats.
	c.LogLevel = "error"
	c.LogJSON = true
	buf.Reset()
	log = testLogger(t, &buf, c)
	log.Infof("suppressed")
	if buf.Len() != 0 {
		t.Errorf("info line emitted at -log-level error: %q", buf.String())
	}
}

// TestStartProfilesErrors: an uncreatable -cpuprofile fails startup; an
// uncreatable -memprofile is logged at stop without failing the run (results
// are already out); the success path writes both files.
func TestStartProfilesErrors(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no", "such", "dir")

	c := New("cohort-test")
	c.CPUProfile = filepath.Join(missing, "cpu.out")
	var buf bytes.Buffer
	log := testLogger(t, &buf, c)
	if stop, err := c.StartProfiles(log); err == nil {
		stop()
		t.Fatal("StartProfiles created a CPU profile in a missing directory")
	}

	c = New("cohort-test")
	c.MemProfile = filepath.Join(missing, "mem.out")
	buf.Reset()
	log = testLogger(t, &buf, c)
	stop, err := c.StartProfiles(log)
	if err != nil {
		t.Fatalf("StartProfiles with only -memprofile: %v", err)
	}
	stop()
	if !strings.Contains(buf.String(), "memprofile") {
		t.Errorf("memprofile creation failure not logged: %q", buf.String())
	}

	c = New("cohort-test")
	c.CPUProfile = filepath.Join(dir, "cpu.out")
	c.MemProfile = filepath.Join(dir, "mem.out")
	buf.Reset()
	log = testLogger(t, &buf, c)
	stop, err = c.StartProfiles(log)
	if err != nil {
		t.Fatalf("StartProfiles: %v", err)
	}
	stop()
	for _, p := range []string{c.CPUProfile, c.MemProfile} {
		st, err := os.Stat(p)
		if err != nil {
			t.Errorf("profile %s not written: %v", p, err)
			continue
		}
		if st.Size() == 0 {
			t.Errorf("profile %s is empty", p)
		}
	}
	if buf.Len() != 0 {
		t.Errorf("successful profile run logged errors: %q", buf.String())
	}

	// No profile flags: the stop func must still be non-nil and harmless.
	c = New("cohort-test")
	stop, err = c.StartProfiles(testLogger(t, &buf, c))
	if err != nil || stop == nil {
		t.Fatalf("StartProfiles without flags: err=%v, stop nil=%v; want non-nil no-op", err, stop == nil)
	}
	stop()
}

// TestCheckSizing pins the sizing check Parse runs after parsing: each bad
// value is an error naming its flag, good values pass, and flags a tool
// does not register are skipped.
func TestCheckSizing(t *testing.T) {
	newFS := func() *flag.FlagSet {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Float64("scale", 0.05, "")
		fs.Int("cores", 4, "")
		fs.Int("line", 64, "")
		fs.Int("cap", 4000, "")
		return fs
	}
	for _, tc := range []struct {
		args []string
		flag string // "" = accepted
	}{
		{nil, ""},
		{[]string{"-scale", "1", "-cores", "1", "-line", "1", "-cap", "0"}, ""},
		{[]string{"-scale", "0"}, "-scale"},
		{[]string{"-scale", "-1"}, "-scale"},
		{[]string{"-scale", "NaN"}, "-scale"},
		{[]string{"-scale", "+Inf"}, "-scale"},
		{[]string{"-cores", "0"}, "-cores"},
		{[]string{"-cores", "-3"}, "-cores"},
		{[]string{"-line", "0"}, "-line"},
		{[]string{"-cap", "-5"}, "-cap"},
	} {
		err := Parse(newFS(), tc.args)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%v rejected: %v", tc.args, err)
		case tc.flag != "" && err == nil:
			t.Errorf("%v accepted", tc.args)
		case tc.flag != "" && !strings.Contains(err.Error(), "invalid "+tc.flag+" "):
			t.Errorf("%v: error %q does not name %s", tc.args, err, tc.flag)
		}
	}
	// A tool without sizing flags has nothing to check.
	if err := Parse(flag.NewFlagSet("bare", flag.ContinueOnError), nil); err != nil {
		t.Errorf("bare flag set: %v", err)
	}
}

// TestList pins the per-core list parser every CLI uses for -timers,
// -crit, -timed, -gamma, -deadlines, -switch and the cohort-model menus.
func TestList(t *testing.T) {
	for _, tc := range []struct {
		name, in string
		n        int
		parse    func(string) (any, error)
		want     []any
		err      string // "" = accepted
	}{
		{"empty gives nil", "", 4, anyOf(Bit), nil, ""},
		{"mask", "1, 0,1,1", 4, anyOf(Bit), []any{true, false, true, true}, ""},
		{"mask not strict", "1,2,x,0", 4, anyOf(Bit), nil, `bad -timed value "2": want 0 or 1`},
		{"mask word", "1,true,0,0", 4, anyOf(Bit), nil, `bad -timed value "true": want 0 or 1`},
		{"too few", "1,2", 4, anyOf(Timer), nil, "-timed has 2 values for 4 cores"},
		{"too many", "1,1,1,1,1", 4, anyOf(Bit), nil, "-timed has 5 values for 4 cores"},
		{"empty element", "1,,1,1", 4, anyOf(Bit), nil, `bad -timed value "": want 0 or 1`},
		{"timers", "300,20,0,-1", 4, anyOf(Timer), []any{config.Timer(300), config.Timer(20), config.TimerNoCache, config.TimerMSI}, ""},
		{"timer syntax", "300,2x,0,-1", 4, anyOf(Timer), nil, `bad -timed value "2x": invalid syntax`},
		{"timer range", "1,1,1,4294967296", 4, anyOf(Timer), nil, `bad -timed value "4294967296": value out of range`},
		{"cycles", "0,2000000,0,0", 4, anyOf(Cycles), []any{int64(0), int64(2000000), int64(0), int64(0)}, ""},
		{"negative cycles", "-5,0,0,0", 4, anyOf(Cycles), nil, `bad -timed value "-5": must be at least 0`},
		{"any count", "7,8,9", 0, anyOf(Cycles), []any{int64(7), int64(8), int64(9)}, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := List("timed", tc.in, tc.n, tc.parse)
			if tc.err != "" {
				if err == nil || err.Error() != tc.err {
					t.Fatalf("List(%q) error = %v, want %q", tc.in, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("List(%q): %v", tc.in, err)
			}
			if !reflect.DeepEqual(got, tc.want) || (got == nil) != (tc.want == nil) {
				t.Errorf("List(%q) = %#v, want %#v", tc.in, got, tc.want)
			}
		})
	}
}

// anyOf adapts a typed element parser to the table's common type.
func anyOf[T any](parse func(string) (T, error)) func(string) (any, error) {
	return func(s string) (any, error) { return parse(s) }
}

// TestExitCode pins the exit contract Main applies: 0 on success and -h, 2
// on a flag-parse error, 1 with a "tool: err" line on any other error.
func TestExitCode(t *testing.T) {
	newFS := func() *flag.FlagSet {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		fs.Int("cores", 4, "")
		return fs
	}
	for _, tc := range []struct {
		err    error
		code   int
		stderr string
	}{
		{nil, 0, ""},
		{Parse(newFS(), []string{"-h"}), 0, ""},
		{Parse(newFS(), []string{"-nope"}), 2, ""},
		{Parse(newFS(), []string{"-cores", "x"}), 2, ""},
		{Parse(newFS(), []string{"-cores", "0"}), 1, "tool: invalid -cores 0: must be at least 1\n"},
		{errors.New("boom"), 1, "tool: boom\n"},
	} {
		var stderr bytes.Buffer
		if got := exitCode("tool", tc.err, &stderr); got != tc.code || stderr.String() != tc.stderr {
			t.Errorf("exitCode(%v) = %d, stderr %q; want %d, %q", tc.err, got, stderr.String(), tc.code, tc.stderr)
		}
	}
}

// TestWriteFile: the helper reports a failed write and a failed create,
// and leaves the written bytes on success.
func TestWriteFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.txt")
	if err := WriteFile(path, func(w io.Writer) error { _, err := io.WriteString(w, "hi"); return err }); err != nil {
		t.Fatal(err)
	}
	if b, err := os.ReadFile(path); err != nil || string(b) != "hi" {
		t.Fatalf("wrote %q, %v", b, err)
	}
	boom := errors.New("boom")
	if err := WriteFile(path, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Errorf("write error = %v, want boom", err)
	}
	if err := WriteFile(filepath.Join(dir, "no", "such"), func(io.Writer) error { return nil }); err == nil {
		t.Error("create in a missing directory succeeded")
	}
}

// TestWriteRun: a run's manifest lands in -out-dir with its Chrome trace
// beside it when a recorder is attached, and alone when not.
func TestWriteRun(t *testing.T) {
	clk := obs.ManualClock{T: time.Unix(0, 0).UTC()}
	for _, withRec := range []bool{false, true} {
		c := New("cohort-test")
		c.OutDir = t.TempDir()
		var logBuf bytes.Buffer
		log := testLogger(t, &logBuf, c)
		man := obs.NewManifest("cohort-test", clk)
		man.ConfigKey = "00ff"
		man.Workers = 1
		var rec *obs.Recorder
		if withRec {
			rec = obs.NewRecorder()
		}
		if err := c.WriteRun(man, rec, clk, log); err != nil {
			t.Fatalf("recorder %v: %v", withRec, err)
		}
		ms, err := obs.LoadManifests(c.OutDir)
		if err != nil || len(ms) != 1 {
			t.Fatalf("recorder %v: %d manifests, %v", withRec, len(ms), err)
		}
		traces, _ := filepath.Glob(filepath.Join(c.OutDir, "*.trace.json"))
		if (len(traces) == 1) != withRec {
			t.Errorf("recorder %v: trace files %v", withRec, traces)
		}
		if !strings.Contains(logBuf.String(), "cohort-test: wrote ") {
			t.Errorf("recorder %v: artifacts not logged: %q", withRec, logBuf.String())
		}
	}
}

// TestGenerate: the workload flags pick the profile and sizing, and an
// unknown profile is an error.
func TestGenerate(t *testing.T) {
	c := New("cohort-test")
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	c.RegisterWorkload(fs)
	if err := Parse(fs, []string{"-bench", "lu", "-cores", "2", "-scale", "0.01"}); err != nil {
		t.Fatal(err)
	}
	tr, err := c.Generate(64)
	if err != nil {
		t.Fatal(err)
	}
	p, _ := trace.ProfileByName("lu")
	want := p.Scaled(0.01).Generate(2, 64, 42)
	if tr.Name != want.Name || !reflect.DeepEqual(tr.Streams, want.Streams) {
		t.Errorf("Generate = %s with %d streams, want %s with %d", tr.Name, len(tr.Streams), want.Name, len(want.Streams))
	}
	c.Bench = "nope"
	if _, err := c.Generate(64); err == nil {
		t.Error("unknown -bench accepted")
	}
}
