package obs

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"cohort/internal/stats"
)

func fixedClock(sec int) ManualClock {
	return ManualClock{T: time.Date(2026, 1, 2, 3, 4, sec, 0, time.UTC)}
}

func sampleManifest() *Manifest {
	m := NewManifest("cohort-bench", fixedClock(0))
	m.Args = []string{"-run", "fig5a", "-j", "8"}
	m.ConfigKey = "0123456789abcdef0123456789abcdef"
	m.Traces = []TraceRef{{Name: "fft", Fingerprint: "aabbccdd"}}
	m.Seed = 42
	m.Workers = 8
	m.Engine = &stats.EngineStats{Jobs: 10, CacheHits: 4, CacheMisses: 6}
	r := NewRegistry()
	r.Counter("experiments_figures_total").Inc()
	m.Metrics = r.Snapshot()
	m.Finish(fixedClock(5))
	return m
}

func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	if m.WallSeconds != 5 {
		t.Fatalf("wall seconds = %g, want 5", m.WallSeconds)
	}
	dir := t.TempDir()
	path, err := m.Write(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(path, "cohort-bench-0123456789ab-j8.manifest.json") {
		t.Fatalf("unexpected manifest path %q", path)
	}
	got, err := ReadManifest(path)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := m.JSON()
	b, _ := got.JSON()
	if !bytes.Equal(a, b) {
		t.Fatalf("round trip drift:\n%s\nvs\n%s", a, b)
	}
	ms, err := LoadManifests(dir)
	if err != nil || len(ms) != 1 {
		t.Fatalf("LoadManifests: %v, %d manifests", err, len(ms))
	}
}

func TestManifestDeterministicBytes(t *testing.T) {
	a, _ := sampleManifest().JSON()
	b, _ := sampleManifest().JSON()
	if !bytes.Equal(a, b) {
		t.Fatal("manifest JSON not reproducible under a fixed clock")
	}
}

func TestManifestValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Manifest)
		want   string
	}{
		{"wrong schema", func(m *Manifest) { m.Schema = "v0" }, "schema"},
		{"empty tool", func(m *Manifest) { m.Tool = "" }, "tool"},
		{"empty key", func(m *Manifest) { m.ConfigKey = "" }, "config_key"},
		{"uppercase key", func(m *Manifest) { m.ConfigKey = "ABCDEF" }, "config_key"},
		{"zero workers", func(m *Manifest) { m.Workers = 0 }, "workers"},
		{"bad time", func(m *Manifest) { m.StartedAt = "yesterday" }, "started_at"},
		{"negative wall", func(m *Manifest) { m.WallSeconds = -1 }, "wall_seconds"},
		{"bad trace", func(m *Manifest) { m.Traces[0].Fingerprint = "zz" }, "trace"},
		{"bad metric kind", func(m *Manifest) { m.Metrics[0].Kind = "weird" }, "kind"},
	}
	for _, tc := range cases {
		m := sampleManifest()
		tc.mutate(m)
		err := m.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want mention of %q", tc.name, err, tc.want)
		}
	}
	if err := sampleManifest().Validate(); err != nil {
		t.Fatalf("valid manifest rejected: %v", err)
	}
}

func TestManifestFinishNegativeClamped(t *testing.T) {
	m := NewManifest("t", fixedClock(30))
	m.Finish(fixedClock(0)) // clock moved backwards: clamp, don't go negative
	if m.WallSeconds != 0 {
		t.Fatalf("wall seconds = %g, want 0", m.WallSeconds)
	}
}

func TestShortKey(t *testing.T) {
	if ShortKey("0123456789abcdef") != "0123456789ab" {
		t.Fatal("long key not truncated")
	}
	if ShortKey("abc") != "abc" {
		t.Fatal("short key changed")
	}
}
