// Command perfbench is the repository's benchmark. It regenerates one of
// the paper's artifacts in a loop, each iteration cold as in a fresh
// cohort-bench process, checks every output, and prints the figures as one
// JSON line.
//
//	perfbench --workload fig5a-cold --seed 42 --seconds 10 --trace 0
//
// --trace 0 times the experiment runner with two workers and reports the
// end-to-end metrics. --trace 1 rebuilds the same cells from the layer
// functions at one worker, wraps each layer call in a span, and reports the
// per-layer metrics. README.md lists the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/experiments"
	"cohort/internal/trace"
)

const (
	// benchWorkers is the cell pool and GA worker count of the end-to-end
	// runs. It is fixed rather than taken from NumCPU so that the load does
	// not change with the host.
	benchWorkers = 2
	// setupProbes is how many fresh processes measure set-up time per run.
	setupProbes = 7
	// minIterations and minRounds floor the samples behind each median when
	// --seconds is short.
	minIterations = 5
	minRounds     = 3
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// session records the host and the run next to every result set: figures
// measured on one host do not transfer to another.
type session struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Trace       int                `json:"trace"`
	NumCPU      int                `json:"num_cpu"`
	GOMAXPROCS  int                `json:"gomaxprocs"`
	GoVersion   string             `json:"go_version"`
	Workers     int                `json:"workers"`
	Walls       map[string]summary `json:"walls_s"`
	SetupProbes []float64          `json:"setup_probes_s,omitempty"`
	Failures    []string           `json:"failures,omitempty"`
}

func newSession(w workload, seed uint64, traced, workers int) *session {
	return &session{
		Workload: w.name, Seed: seed, Trace: traced,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Workers: workers, Walls: map[string]summary{},
	}
}

// fail records one failed check.
func (s *session) fail(what string, err error) {
	s.Failures = append(s.Failures, what+": "+err.Error())
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: fig5a-cold, table2-modes or timer-sweep-4x")
	seed := fs.Uint64("seed", 42, "trace generator seed")
	seconds := fs.Float64("seconds", 10, "how long to measure")
	traced := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced per-layer metrics")
	outDir := fs.String("out", ".bench_build/spans", "directory the traced run writes its spans to")
	probe := fs.Bool("setup-probe", false, "run one cold warm-up iteration and exit (used to time set-up)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := workloadByName(*name)
	if err != nil || (*traced != 0 && *traced != 1) || *seconds <= 0 {
		fmt.Fprintf(stderr, "perfbench: need --workload <name> --seconds >0 --trace 0|1 (%v)\n", err)
		return 2
	}
	if *probe {
		if _, err := warmUp(w, w.options(*seed, benchWorkers)); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}

	var (
		res  result
		sess *session
	)
	if *traced == 1 {
		res, sess, err = tracedRun(w, *seed, *seconds, filepath.Join(*outDir, fmt.Sprintf("spans-%s-seed%d.json", w.name, *seed)))
	} else {
		res, sess, err = timedRun(w, *seed, *seconds, stderr)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, f := range sess.Failures {
		fmt.Fprintln(stderr, "perfbench: FAILED", f)
	}
	res.Failed = len(sess.Failures)
	res.Correct = res.Failed == 0
	sb, err := json.Marshal(map[string]*session{"session": sess})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rb, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n%s\n", sb, rb)
	return 0
}

// warmUp runs one cold iteration and returns the reference every later
// iteration must reproduce. At seed 42 the reference output is cohort-bench's
// own, so the warm-up must match it too.
func warmUp(w workload, o experiments.Options) (*reference, error) {
	it := runIteration(w, o, coldReset)
	if it.err != nil {
		return nil, fmt.Errorf("warm-up: %w", it.err)
	}
	ref := &reference{digest: digest(it.out), work: it.work, result: it.result}
	if o.Seed == 42 && ref.digest != w.digest42 {
		return nil, fmt.Errorf("warm-up: output digest %s, want cohort-bench's %s", ref.digest, w.digest42)
	}
	return ref, nil
}

// timedRun measures the end-to-end metrics: cold runner iterations at
// benchWorkers, then one check that the layer-by-layer composition agrees.
func timedRun(w workload, seed uint64, seconds float64, stderr io.Writer) (result, *session, error) {
	sess := newSession(w, seed, 0, benchWorkers)
	setups, err := measureSetup(w, seed, stderr)
	if err != nil {
		return result{}, nil, err
	}
	sess.SetupProbes = setups
	o := w.options(seed, benchWorkers)
	ref, err := warmUp(w, o)
	if err != nil {
		return result{}, nil, err
	}

	var walls, cpus, allocs, gcs, retained []float64
	start := time.Now()
	for len(walls) < minIterations || time.Since(start).Seconds() < seconds {
		it := runIteration(w, o, coldReset)
		walls = append(walls, it.stats.wall)
		cpus = append(cpus, it.stats.cpu)
		allocs = append(allocs, it.stats.allocMB)
		gcs = append(gcs, it.stats.gcCycles)
		retained = append(retained, it.stats.retainedMB)
		if it.err == nil {
			it.err = ref.checkRunner(it.out, it.work)
		}
		if it.err != nil {
			sess.fail(fmt.Sprintf("iteration %d", len(walls)), it.err)
		}
	}
	sess.Walls["runner"] = summarize(walls)

	coldReset()
	l := &layers{o: w.options(seed, 1)}
	cres, cout, err := l.compose(w)
	if err == nil {
		err = ref.checkComposition(cres, cout, l.work)
	}
	if err != nil {
		sess.fail("composition", err)
	}

	metrics, err := collect(endToEnd, map[string]float64{
		"wall_s":      median(walls),
		"cpu_s":       median(cpus),
		"alloc_mb":    median(allocs),
		"gc_cycles":   median(gcs),
		"retained_mb": median(retained),
		"setup_s":     median(setups),
	})
	return result{Attempted: len(walls) + 1, Metrics: metrics}, sess, err
}

// measureSetup starts setupProbes fresh processes of this program, each of
// which runs one cold warm-up iteration and exits, and returns their walls:
// set-up from process start to the point the first timed iteration would
// begin.
func measureSetup(w workload, seed uint64, stderr io.Writer) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var walls []float64
	for i := 0; i < setupProbes; i++ {
		cmd := exec.Command(exe, "--setup-probe", "--workload", w.name, "--seed", strconv.FormatUint(seed, 10))
		cmd.Stderr = stderr
		start := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up probe: %w", err)
		}
		walls = append(walls, time.Since(start).Seconds())
	}
	return walls, nil
}

// tracedRun measures the per-layer metrics at one worker. Each round runs
// the runner untraced, the composition untraced, and the composition
// traced, each from a cold reset; their differences give the runner's own
// overhead and the tracing overhead.
func tracedRun(w workload, seed uint64, seconds float64, spansPath string) (result, *session, error) {
	sess := newSession(w, seed, 1, 1)
	o := w.options(seed, 1)
	ref, err := warmUp(w, o)
	if err != nil {
		return result{}, nil, err
	}
	tr := newTracer()
	var (
		runnerWalls, compWalls, tracedWalls []float64
		gcCPU, cpu                          float64
		rounds                              []map[string]float64
		firstWork                           *layerWork
	)
	start := time.Now()
	for round := 1; round <= minRounds || time.Since(start).Seconds() < seconds; round++ {
		it := runIteration(w, o, coldReset)
		runnerWalls = append(runnerWalls, it.stats.wall)
		gcCPU += it.after.gcCPU - it.before.gcCPU
		cpu += it.stats.cpu
		if it.err == nil {
			it.err = ref.checkRunner(it.out, it.work)
		}
		if it.err != nil {
			sess.fail(fmt.Sprintf("round %d runner", round), it.err)
		}

		coldReset()
		t0 := time.Now()
		l := &layers{o: o}
		res, out, err := l.compose(w)
		compWalls = append(compWalls, time.Since(t0).Seconds())
		if err == nil {
			err = ref.checkComposition(res, out, l.work)
		}
		if err != nil {
			sess.fail(fmt.Sprintf("round %d composition", round), err)
		}

		coldReset()
		tr.iter = round
		first := len(tr.spans)
		t0 = time.Now()
		lt := &layers{o: o, tr: tr}
		res, out, err = lt.compose(w)
		tracedWalls = append(tracedWalls, time.Since(t0).Seconds())
		if err == nil {
			err = ref.checkComposition(res, out, lt.work)
		}
		if err == nil && firstWork != nil && lt.work != *firstWork {
			err = fmt.Errorf("layer work %+v, first round %+v", lt.work, *firstWork)
		}
		if err != nil {
			sess.fail(fmt.Sprintf("round %d traced composition", round), err)
		}
		if firstWork == nil {
			firstWork = &lt.work
		}
		rounds = append(rounds, layerFigures(tr.spans[first:], lt.work))
	}
	sess.Walls["runner_1w"] = summarize(runnerWalls)
	sess.Walls["composition"] = summarize(compWalls)
	sess.Walls["traced"] = summarize(tracedWalls)

	probes, err := analysisProbes(o)
	if err != nil {
		return result{}, nil, err
	}
	if err := tr.write(spansPath, sess); err != nil {
		return result{}, nil, err
	}

	runnerMS, compMS, tracedMS := median(runnerWalls)*1e3, median(compWalls)*1e3, median(tracedWalls)*1e3
	values := map[string]float64{
		"experiments.overhead_ms":  runnerMS - compMS,
		"runtime.gc_cpu_pct":       100 * ratio(gcCPU, cpu),
		"bench.trace_overhead_pct": 100 * ratio(tracedMS-compMS, compMS),
		"bench.runner_ms":          runnerMS,
		"bench.composition_ms":     compMS,
		"bench.traced_ms":          tracedMS,
	}
	for k, v := range probes {
		values[k] = v
	}
	for k := range rounds[0] {
		var per []float64
		for _, r := range rounds {
			per = append(per, r[k])
		}
		values[k] = median(per)
	}
	metrics, err := collect(perLayer, values)
	return result{Attempted: 3 * len(rounds), Metrics: metrics}, sess, err
}

// collect pairs every listed metric with its value, and fails on a metric
// nothing measured.
func collect(list []metricSpec, values map[string]float64) (map[string]metric, error) {
	out := map[string]metric{}
	for _, m := range list {
		v, ok := values[m.name]
		if !ok {
			return nil, fmt.Errorf("no value for metric %s", m.name)
		}
		out[m.name] = metric{v, m.unit}
	}
	return out, nil
}

type metricSpec struct{ name, unit string }

// endToEnd lists the metrics of an untraced run, in BENCHMARK.json order.
var endToEnd = []metricSpec{
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"gc_cycles", "count"},
	{"retained_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer lists the per-layer metrics of a traced run, in BENCHMARK.json
// order. Layers a workload does not use report 0.
var perLayer = []metricSpec{
	{"trace.generate_ms", "ms"},
	{"trace.generate_calls", "count"},
	{"trace.accesses", "count"},
	{"trace.alloc_mb", "MB"},
	{"opt.optimize_ms", "ms"},
	{"opt.calls", "count"},
	{"opt.evaluations", "count"},
	{"opt.genome_hit_ratio", "ratio"},
	{"opt.us_per_eval", "us"},
	{"opt.alloc_mb", "MB"},
	{"analysis.scalar_query_us", "us"},
	{"analysis.curve_build_ms", "ms"},
	{"analysis.curve_segments", "count"},
	{"analysis.bounds_ms", "ms"},
	{"analysis.bounds_calls", "count"},
	{"core.new_ms", "ms"},
	{"core.run_ms", "ms"},
	{"core.check_ms", "ms"},
	{"core.runs", "count"},
	{"core.new_alloc_mb", "MB"},
	{"core.run_alloc_mb", "MB"},
	{"core.sim_cycles", "count"},
	{"core.ns_per_sim_cycle", "ns/cycle"},
	{"core.sim_kaccess_per_s", "kaccess/s"},
	{"experiments.overhead_ms", "ms"},
	{"stats.render_ms", "ms"},
	{"runtime.gc_cpu_pct", "%"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.unattributed_pct", "%"},
	{"bench.runner_ms", "ms"},
	{"bench.composition_ms", "ms"},
	{"bench.traced_ms", "ms"},
}

// layerSpans are the span names that stand for a layer call; "iteration"
// and "cell" are the composition's own glue.
var layerSpans = map[string]bool{
	"trace.generate": true, "opt.optimize": true, "analysis.bounds": true,
	"core.new": true, "core.run": true, "core.check": true, "stats.render": true,
}

// layerFigures turns one traced round into per-layer figures: self time
// and allocation summed per layer, the round's work counts, and the share
// of the round's wall no layer span covers.
func layerFigures(spans []span, lw layerWork) map[string]float64 {
	self := selfTimes(spans)
	ms := map[string]float64{}
	mb := map[string]float64{}
	var root span
	var layerIv [][2]int64
	for i, s := range spans {
		if s.Name == "iteration" {
			root = s
		}
		if layerSpans[s.Name] {
			ms[s.Name] += float64(self[i]) / 1e6
			mb[s.Name] += float64(s.AllocBytes) / 1e6
			layerIv = append(layerIv, [2]int64{s.Start, s.End})
		}
	}
	return map[string]float64{
		"trace.generate_ms":      ms["trace.generate"],
		"trace.generate_calls":   float64(lw.GenerateCalls),
		"trace.accesses":         float64(lw.Accesses),
		"trace.alloc_mb":         mb["trace.generate"],
		"opt.optimize_ms":        ms["opt.optimize"],
		"opt.calls":              float64(lw.OptCalls),
		"opt.evaluations":        float64(lw.Evaluations),
		"opt.genome_hit_ratio":   ratio(float64(lw.GenomeHits), float64(lw.GenomeProbes)),
		"opt.us_per_eval":        ratio(ms["opt.optimize"]*1e3, float64(lw.Evaluations)),
		"opt.alloc_mb":           mb["opt.optimize"],
		"analysis.bounds_ms":     ms["analysis.bounds"],
		"analysis.bounds_calls":  float64(lw.BoundsCalls),
		"core.new_ms":            ms["core.new"],
		"core.run_ms":            ms["core.run"],
		"core.check_ms":          ms["core.check"],
		"core.runs":              float64(lw.CoreRuns),
		"core.new_alloc_mb":      mb["core.new"],
		"core.run_alloc_mb":      mb["core.run"],
		"core.sim_cycles":        float64(lw.SimCycles),
		"core.ns_per_sim_cycle":  ratio(ms["core.run"]*1e6, float64(lw.SimCycles)),
		"core.sim_kaccess_per_s": ratio(float64(lw.SimAccesses), ms["core.run"]),
		"stats.render_ms":        ms["stats.render"],
		"bench.unattributed_pct": 100 * ratio(float64(root.dur()-covered(layerIv)), float64(root.dur())),
	}
}

// analysisProbes times the isolation analysis outside any iteration, on the
// workload's own streams (every core is timed in the first mode of each
// workload): one scalar GuaranteedHits query per (core, θ) — the
// optimizer's cold-path oracle — and one hit-curve build per profile's
// core-0 stream. Their ratio is the number of queries a curve must serve to
// pay for itself.
func analysisProbes(o experiments.Options) (map[string]float64, error) {
	ps, err := profiles(o)
	if err != nil {
		return nil, err
	}
	cfg := config.PaperDefaults(o.NCores, 1)
	var traces []*trace.Trace
	for _, p := range ps {
		traces = append(traces, p.Generate(o.NCores, 64, o.Seed))
	}
	var perQuery []float64
	var hits int64
	for pass := 0; pass < 3; pass++ {
		n := 0
		start := time.Now()
		for _, tr := range traces {
			for _, s := range tr.Streams {
				for _, th := range timerSweepThetas {
					h, _ := analysis.GuaranteedHits(s, cfg.L1, cfg.Lat, th, cfg.Lat.SlotWidth())
					hits += h
					n++
				}
			}
		}
		perQuery = append(perQuery, time.Since(start).Seconds()*1e6/float64(n))
	}
	if hits == 0 {
		return nil, fmt.Errorf("analysis probe: no guaranteed hits on any stream")
	}
	var buildMS float64
	var segments int
	for _, tr := range traces {
		start := time.Now()
		c := analysis.NewIsolationHitCurve(tr.Streams[0], cfg.L1, cfg.Lat)
		buildMS += time.Since(start).Seconds() * 1e3
		segments += c.Segments()
	}
	return map[string]float64{
		"analysis.scalar_query_us": median(perQuery),
		"analysis.curve_build_ms":  buildMS / float64(len(traces)),
		"analysis.curve_segments":  float64(segments) / float64(len(traces)),
	}, nil
}
