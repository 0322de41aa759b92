package obs

import (
	"bytes"
	"sync"
	"testing"

	"cohort/internal/stats"
)

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	c.Inc()
	if c.Value() != 1 {
		t.Fatal("detached counter broken")
	}
	r.Gauge("g").Set(7)
	r.FloatGauge("f").Set(1.5)
	r.Histogram("h").Observe(3)
	r.RegisterCounter("rc", &Counter{})
	r.RegisterFunc("rf", func() int64 { return 1 })
	r.RegisterCounterFunc("rcf", func() int64 { return 1 })
	r.RegisterHistogram("rh", &stats.Histogram{})
	if snap := r.Snapshot(); snap != nil {
		t.Fatalf("nil registry snapshot = %v", snap)
	}
}

func TestRegistryGetOrCreate(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("jobs", L("pool", "p1"))
	b := r.Counter("jobs", L("pool", "p1"))
	if a != b {
		t.Fatal("same identity returned distinct counters")
	}
	other := r.Counter("jobs", L("pool", "p2"))
	if a == other {
		t.Fatal("distinct labels returned same counter")
	}
	a.Add(3)
	a.Add(-1) // negative delta ignored: counters stay monotone
	snap := r.Snapshot()
	m, ok := snap.Get("jobs", L("pool", "p1"))
	if !ok || m.Value != 3 || m.Kind != KindCounter {
		t.Fatalf("snapshot jobs{pool=p1} = %+v ok=%v", m, ok)
	}
	if g := r.Gauge("depth"); g != r.Gauge("depth") {
		t.Fatal("gauge get-or-create broken")
	}
	if f := r.FloatGauge("ratio"); f != r.FloatGauge("ratio") {
		t.Fatal("float gauge get-or-create broken")
	}
	if h := r.Histogram("lat"); h != r.Histogram("lat") {
		t.Fatal("histogram get-or-create broken")
	}
}

func TestRegistryReRegistrationReplaces(t *testing.T) {
	r := NewRegistry()
	var first, second Counter
	first.Add(10)
	second.Add(99)
	r.RegisterCounter("sim_cycles", &first)
	r.RegisterCounter("sim_cycles", &second)
	m, ok := r.Snapshot().Get("sim_cycles")
	if !ok || m.Value != 99 {
		t.Fatalf("re-registration did not replace: %+v", m)
	}
}

func TestSnapshotCanonicalOrder(t *testing.T) {
	// Register in scrambled order with scrambled label order; snapshots must
	// come out identical and sorted.
	build := func(order []int) Snapshot {
		r := NewRegistry()
		reg := []func(){
			func() { r.Counter("b_metric").Add(2) },
			func() { r.Counter("a_metric", L("core", "1"), L("zone", "x")).Add(1) },
			func() { r.Counter("a_metric", L("zone", "x"), L("core", "0")).Add(1) },
			func() { r.FloatGauge("ratio").Set(0.5) },
		}
		for _, i := range order {
			reg[i]()
		}
		return r.Snapshot()
	}
	s1 := build([]int{0, 1, 2, 3})
	s2 := build([]int{3, 2, 1, 0})
	if !bytes.Equal(s1.JSON(), s2.JSON()) {
		t.Fatalf("snapshot order depends on registration order:\n%s\nvs\n%s", s1.JSON(), s2.JSON())
	}
	if len(s1) != 4 || s1[0].Name != "a_metric" || s1[0].Labels[0].Value != "0" {
		t.Fatalf("snapshot not in canonical order: %s", s1.JSON())
	}
	// Label order within one metric is canonicalized too: core sorts before
	// zone regardless of argument order.
	if s1[1].Labels[0].Key != "core" || s1[1].Labels[1].Key != "zone" {
		t.Fatalf("labels not key-sorted: %+v", s1[1].Labels)
	}
}

func TestSnapshotHistogramFields(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("latency", L("core", "0"))
	for i := 0; i < 99; i++ {
		h.Observe(1)
	}
	h.Observe(1000)
	m, ok := r.Snapshot().Get("latency", L("core", "0"))
	if !ok || m.Kind != KindHistogram {
		t.Fatalf("histogram metric missing: %+v", m)
	}
	if m.Value != 100 || m.Max != 1000 || m.P50 != 1 {
		t.Fatalf("histogram fields: %+v", m)
	}
	if len(m.BucketUppers) != len(m.BucketCounts) || len(m.BucketUppers) == 0 {
		t.Fatalf("histogram buckets: %+v", m)
	}
}

func TestRegisterFuncReadsLiveValue(t *testing.T) {
	r := NewRegistry()
	v := int64(0)
	r.RegisterFunc("live", func() int64 { return v })
	v = 41
	if m, _ := r.Snapshot().Get("live"); m.Value != 41 {
		t.Fatalf("func gauge read %d, want 41", m.Value)
	}
	v = 42
	if m, _ := r.Snapshot().Get("live"); m.Value != 42 {
		t.Fatalf("func gauge read %d, want 42", m.Value)
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	// The registry itself must tolerate concurrent registration and
	// snapshotting (the experiment harness registers from its coordinator
	// while tests snapshot); run under -race in CI.
	r := NewRegistry()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				r.RegisterFunc("g", func() int64 { return 1 }, L("w", string(rune('a'+g))))
				_ = r.Snapshot()
			}
		}(g)
	}
	wg.Wait()
	if len(r.Snapshot()) != 8 {
		t.Fatalf("want 8 metrics, got %d", len(r.Snapshot()))
	}
}

func TestSnapshotString(t *testing.T) {
	r := NewRegistry()
	r.Counter("sim_cycles").Add(123)
	r.FloatGauge("ratio").Set(0.75)
	r.Histogram("lat").Observe(9)
	out := r.Snapshot().String()
	for _, want := range []string{"sim_cycles", "123", "ratio", "0.75", "lat", "samples"} {
		if !bytes.Contains([]byte(out), []byte(want)) {
			t.Fatalf("snapshot text missing %q:\n%s", want, out)
		}
	}
}
