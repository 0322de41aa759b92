package experiments

import (
	"fmt"
	"strings"

	"cohort/internal/obs"
	"cohort/internal/stats"
)

// Figure is one named entry of the experiment suite: a table or figure of
// the paper's evaluation, or one of this repo's ablations and extensions.
type Figure struct {
	// Name is the selector cmd/cohort-bench's -run flag matches.
	Name string
	// Run regenerates the entry. bench names the single benchmark of the
	// per-benchmark entries (fig7, table2, scalability); the rest run the
	// options' benchmark selection.
	Run func(o Options, bench string) (Output, error)
}

// Output is what a Figure renders.
type Output struct {
	Tables []*stats.Table
	// Summary is the headline sentence printed after the tables ("" = none).
	Summary string
	// Attribution, when non-nil, is the latency decomposition run manifests
	// record.
	Attribution []obs.AttributionRow
}

// rendered is the shape of every single-table result.
type rendered interface{ Render() *stats.Table }

// output adapts a runner's (result, error) pair: one table, plus the
// result's Summary when it has one.
func output[R rendered](r R, err error) (Output, error) {
	if err != nil {
		return Output{}, err
	}
	out := Output{Tables: []*stats.Table{r.Render()}}
	if s, ok := any(r).(interface{ Summary() string }); ok {
		out.Summary = s.Summary()
	}
	return out, nil
}

// figures is the suite in output order. Adding an experiment is adding an
// entry here.
var figures = []Figure{
	{"table1", func(Options, string) (Output, error) { return Output{Tables: []*stats.Table{Table1()}}, nil }},
	{"fig5a", func(o Options, _ string) (Output, error) { return output(Fig5(o, "all-cr")) }},
	{"fig5b", func(o Options, _ string) (Output, error) { return output(Fig5(o, "2cr-2ncr")) }},
	{"fig5c", func(o Options, _ string) (Output, error) { return output(Fig5(o, "1cr-3ncr")) }},
	{"fig6a", func(o Options, _ string) (Output, error) { return output(Fig6(o, "all-cr")) }},
	{"fig6b", func(o Options, _ string) (Output, error) { return output(Fig6(o, "2cr-2ncr")) }},
	{"fig6c", func(o Options, _ string) (Output, error) { return output(Fig6(o, "1cr-3ncr")) }},
	{"fig7", func(o Options, bench string) (Output, error) {
		r, err := Fig7(o, bench, 1.5, 1.8)
		if err != nil {
			return Output{}, err
		}
		return Output{Tables: r.Render(), Summary: r.Summary()}, nil
	}},
	{"table2", func(o Options, bench string) (Output, error) { return output(Table2(o, bench)) }},
	{"nonperfect", func(o Options, _ string) (Output, error) { return output(NonPerfect(o)) }},
	{"attribution", func(o Options, _ string) (Output, error) {
		r, err := Attribution(o, "all-cr")
		out, err := output(r, err)
		if err == nil {
			out.Attribution = r.ManifestRows()
		}
		return out, err
	}},
	{"ablation-arbiter", func(o Options, _ string) (Output, error) { return output(AblationArbiter(o)) }},
	{"ablation-transfer", func(o Options, _ string) (Output, error) { return output(AblationTransfer(o)) }},
	{"ablation-timer", func(o Options, _ string) (Output, error) { return output(AblationTimer(o, nil)) }},
	{"ablation-snoop", func(o Options, _ string) (Output, error) { return output(AblationSnoop(o)) }},
	{"ablation-l1ways", func(o Options, _ string) (Output, error) { return output(AblationL1Ways(o, 100, nil)) }},
	{"ablation-nonblocking", func(o Options, _ string) (Output, error) { return output(AblationNonBlocking(o)) }},
	{"ablation-optimizer", func(o Options, _ string) (Output, error) { return output(AblationOptimizer(o)) }},
	{"scalability", func(o Options, bench string) (Output, error) {
		return output(ExtensionScalability(o, bench, 50, nil))
	}},
}

// All returns the suite in output order.
func All() []Figure { return append([]Figure(nil), figures...) }

// Names lists the suite's names in output order.
func Names() []string {
	names := make([]string, len(figures))
	for i, f := range figures {
		names[i] = f.Name
	}
	return names
}

// Get returns the named entry; the error for an unknown name lists the
// known ones.
func Get(name string) (Figure, error) {
	for _, f := range figures {
		if f.Name == name {
			return f, nil
		}
	}
	return Figure{}, fmt.Errorf("experiments: unknown experiment %q (known: %s)", name, strings.Join(Names(), ", "))
}
