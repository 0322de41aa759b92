package experiments

import (
	"math"
	"strings"
	"testing"
)

// TestRegistry pins the registry contract: names are unique and non-empty,
// Get finds every entry, an unknown name's error lists the known names, and
// All hands out a copy callers cannot use to reorder the suite.
func TestRegistry(t *testing.T) {
	all := All()
	if len(all) == 0 {
		t.Fatal("empty registry")
	}
	seen := map[string]bool{}
	for _, f := range all {
		if f.Name == "" || f.Run == nil {
			t.Fatalf("incomplete entry %+v", f)
		}
		if seen[f.Name] {
			t.Fatalf("duplicate name %q", f.Name)
		}
		seen[f.Name] = true
		got, err := Get(f.Name)
		if err != nil || got.Name != f.Name {
			t.Fatalf("Get(%q) = %q, %v", f.Name, got.Name, err)
		}
	}
	if names := Names(); len(names) != len(all) {
		t.Fatalf("Names() has %d entries, All() %d", len(names), len(all))
	}

	_, err := Get("fig9z")
	if err == nil {
		t.Fatal("unknown name accepted")
	}
	for _, n := range Names() {
		if !strings.Contains(err.Error(), n) {
			t.Fatalf("error %q does not list %q", err, n)
		}
	}

	all[0] = Figure{Name: "clobbered"}
	if All()[0].Name == "clobbered" {
		t.Fatal("All() exposes the registry's backing array")
	}
}

// TestOptionsValidate is table-driven over the sizing and platform fields
// Validate guards, and checks every entry point that validates rejects the
// same options instead of flooring them into a one-access workload.
func TestOptionsValidate(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(o *Options)
		ok     bool
	}{
		{"quick", func(*Options) {}, true},
		{"no cap", func(o *Options) { o.MaxAccessesPerCore = 0 }, true},
		{"one core", func(o *Options) { o.NCores = 1 }, true},
		{"zero scale", func(o *Options) { o.Scale = 0 }, false},
		{"negative scale", func(o *Options) { o.Scale = -1 }, false},
		{"NaN scale", func(o *Options) { o.Scale = math.NaN() }, false},
		{"+Inf scale", func(o *Options) { o.Scale = math.Inf(1) }, false},
		{"negative cap", func(o *Options) { o.MaxAccessesPerCore = -5 }, false},
		{"zero cores", func(o *Options) { o.NCores = 0 }, false},
		{"negative cores", func(o *Options) { o.NCores = -1 }, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			o := QuickOptions()
			tc.mutate(&o)
			if err := o.Validate(); (err == nil) != tc.ok {
				t.Fatalf("Validate() = %v, want ok %v", err, tc.ok)
			}
			if tc.ok {
				return
			}
			for _, entry := range []struct {
				name string
				run  func() error
			}{
				{"sweep", func() error { _, err := Table2(o, "fft"); return err }},
				{"fig7", func() error { _, err := Fig7(o, "fft", 1.5, 1.8); return err }},
				{"scalability", func() error { _, err := ExtensionScalability(o, "fft", 50, nil); return err }},
				{"trace refs", func() error { _, err := TraceRefs(o); return err }},
			} {
				if entry.run() == nil {
					t.Errorf("%s accepted invalid options", entry.name)
				}
			}
		})
	}
}
