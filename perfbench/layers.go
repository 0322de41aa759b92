package main

import (
	"fmt"

	"cohort/internal/analysis"
	"cohort/internal/config"
	"cohort/internal/core"
	"cohort/internal/experiments"
	"cohort/internal/opt"
	"cohort/internal/stats"
	"cohort/internal/trace"
)

// layers calls the program's layers one at a time on the calling goroutine,
// as the experiment runners do inside one cell, but without their memos.
// It counts the work of every call and, when tr is not nil, wraps each call
// in a span.
type layers struct {
	o    experiments.Options
	tr   *tracer
	work layerWork
}

// layerWork counts the work the composition handed to each layer. All of it
// is a pure function of the workload and seed.
type layerWork struct {
	GenerateCalls, Accesses                         int64
	OptCalls, Evaluations, GenomeHits, GenomeProbes int64
	BoundsCalls                                     int64
	CoreRuns, SimCycles, SimAccesses                int64
}

func (l *layers) generate(p trace.Profile) *trace.Trace {
	id := l.tr.begin("trace.generate")
	tr := p.Generate(l.o.NCores, 64, l.o.Seed)
	l.tr.end(id)
	l.work.GenerateCalls++
	l.work.Accesses += int64(tr.TotalAccesses())
	return tr
}

// optimize runs the GA for one problem: timed cores get optimized timers,
// the rest run MSI.
func (l *layers) optimize(tr *trace.Trace, timed []bool) (*opt.Result, error) {
	cfg := config.PaperDefaults(l.o.NCores, 1)
	prob := &opt.Problem{Lat: cfg.Lat, L1: cfg.L1, Streams: tr.Streams, Timed: timed}
	id := l.tr.begin("opt.optimize")
	r, err := opt.Optimize(prob, l.o.GA)
	l.tr.end(id)
	if err != nil {
		return nil, err
	}
	l.work.OptCalls++
	l.work.Evaluations += int64(r.Evaluations)
	l.work.GenomeHits += r.Engine.CacheHits
	l.work.GenomeProbes += r.Engine.Jobs
	return r, nil
}

func (l *layers) bounds(cfg *config.System, tr *trace.Trace) ([]analysis.CoreBound, error) {
	id := l.tr.begin("analysis.bounds")
	b, err := analysis.Bounds(cfg, tr)
	l.tr.end(id)
	l.work.BoundsCalls++
	return b, err
}

// simulate builds, runs and coherence-checks one full system.
func (l *layers) simulate(cfg *config.System, tr *trace.Trace) (*stats.Run, error) {
	id := l.tr.begin("core.new")
	sys, err := core.New(cfg, tr)
	l.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = l.tr.begin("core.run")
	run, err := sys.Run()
	l.tr.end(id)
	if err != nil {
		return nil, err
	}
	id = l.tr.begin("core.check")
	err = sys.CheckCoherence()
	l.tr.end(id)
	if err != nil {
		return nil, fmt.Errorf("coherence violated: %w", err)
	}
	l.work.CoreRuns++
	l.work.SimCycles += run.Cycles
	l.work.SimAccesses += int64(tr.TotalAccesses())
	return run, nil
}

// compose runs the workload's composition and renders its output inside
// one root span, so the whole iteration is covered.
func (l *layers) compose(w workload) (any, string, error) {
	root := l.tr.begin("iteration")
	defer l.tr.end(root)
	res, err := w.compose(l)
	if err != nil {
		return nil, "", err
	}
	id := l.tr.begin("stats.render")
	out := w.render(res)
	l.tr.end(id)
	return res, out, nil
}
