// Package sched implements the task-level schedulability layer over the
// paper's analysis: tasks follow the §II model τ_j = ⟨l_j, Λ_j, Γ_j^m⟩ (a
// criticality level, a memory-access count, and a per-mode WCML
// requirement), one task per core as in the evaluation. The package turns
// per-core WCML bounds into WCET bounds and admission verdicts, and selects
// the lowest operating mode at which a task set is schedulable — the policy
// the Fig. 7 mode-switch experiment applies by hand.
package sched

import (
	"fmt"

	"cohort/internal/analysis"
)

// Task is one mixed-criticality task mapped to one core.
type Task struct {
	// Name labels the task.
	Name string
	// Core is the core the task runs on.
	Core int
	// Criticality is l_j (higher = more critical).
	Criticality int
	// ComputeCycles is the pure processing time excluding memory latency.
	ComputeCycles int64
	// Deadline is the relative deadline in cycles (= period; implicit
	// deadlines).
	Deadline int64
	// Gamma is Γ_j^m: the per-mode WCML requirement in cycles (index 0 =
	// mode 1; 0 entries mean unconstrained). May be nil.
	Gamma []int64
}

// Validate checks one task's fields.
func (t *Task) Validate(nCores, levels int) error {
	switch {
	case t.Core < 0 || t.Core >= nCores:
		return fmt.Errorf("sched: task %q core %d out of range [0,%d)", t.Name, t.Core, nCores)
	case t.Criticality < 1 || t.Criticality > levels:
		return fmt.Errorf("sched: task %q criticality %d out of range [1,%d]", t.Name, t.Criticality, levels)
	case t.ComputeCycles < 0:
		return fmt.Errorf("sched: task %q negative compute %d", t.Name, t.ComputeCycles)
	case t.Deadline <= 0:
		return fmt.Errorf("sched: task %q deadline %d must be positive", t.Name, t.Deadline)
	case t.Gamma != nil && len(t.Gamma) != levels:
		return fmt.Errorf("sched: task %q has %d Γ entries for %d modes", t.Name, len(t.Gamma), levels)
	}
	return nil
}

// WCET bounds the task's execution time given its core's WCML bound
// (compute + memory). Returns Unbounded when the memory side is unbounded.
func (t *Task) WCET(memBound int64) int64 {
	if memBound == analysis.Unbounded {
		return analysis.Unbounded
	}
	return t.ComputeCycles + memBound
}

// Verdict is one task's admission result at one mode.
type Verdict struct {
	Task *Task
	// Mode is the analyzed operating mode.
	Mode int
	// Degraded reports whether the task's core runs MSI at this mode
	// (criticality below mode).
	Degraded bool
	// WCET is the execution-time bound (Unbounded when none exists).
	WCET int64
	// MeetsDeadline reports WCET ≤ Deadline.
	MeetsDeadline bool
	// MeetsGamma reports the WCML requirement for this mode (true when
	// unconstrained).
	MeetsGamma bool
}

// Schedulable reports whether the verdict passes both checks. Degraded
// tasks are exempt from Γ (the paper assumes requirements only for the
// still-guaranteed tasks) but must still meet their deadline if they have a
// bounded WCET.
func (v Verdict) Schedulable() bool {
	if v.Degraded {
		return true // best-effort at this mode: kept running, no guarantees
	}
	return v.MeetsDeadline && v.MeetsGamma
}

// Admission checks every task at the given 1-based mode using the per-core
// WCML bounds produced by analysis.Bounds (or opt.Evaluation.PerCore).
func Admission(tasks []Task, bounds []analysis.CoreBound, mode, levels int) ([]Verdict, error) {
	if mode < 1 || mode > levels {
		return nil, fmt.Errorf("sched: mode %d out of range [1,%d]", mode, levels)
	}
	out := make([]Verdict, 0, len(tasks))
	for i := range tasks {
		t := &tasks[i]
		if err := t.Validate(len(bounds), levels); err != nil {
			return nil, err
		}
		b := bounds[t.Core]
		v := Verdict{
			Task:     t,
			Mode:     mode,
			Degraded: t.Criticality < mode,
			WCET:     t.WCET(b.WCMLBound),
		}
		v.MeetsDeadline = v.WCET != analysis.Unbounded && v.WCET <= t.Deadline
		v.MeetsGamma = true
		if t.Gamma != nil && t.Gamma[mode-1] > 0 {
			v.MeetsGamma = b.WCMLBound != analysis.Unbounded && b.WCMLBound <= t.Gamma[mode-1]
		}
		out = append(out, v)
	}
	return out, nil
}

// SetSchedulable reports whether every verdict passes.
func SetSchedulable(vs []Verdict) bool {
	for _, v := range vs {
		if !v.Schedulable() {
			return false
		}
	}
	return true
}

// LowestFeasibleMode walks modes 1..levels (never de-escalating below
// from) and returns the first mode at which the task set is schedulable
// under the per-mode bounds. boundsPerMode[m-1] holds the cores' bounds at
// mode m. ok is false when no mode works.
func LowestFeasibleMode(tasks []Task, boundsPerMode [][]analysis.CoreBound, from int) (mode int, verdicts []Verdict, ok bool, err error) {
	levels := len(boundsPerMode)
	if from < 1 {
		from = 1
	}
	for m := from; m <= levels; m++ {
		vs, e := Admission(tasks, boundsPerMode[m-1], m, levels)
		if e != nil {
			return 0, nil, false, e
		}
		if SetSchedulable(vs) {
			return m, vs, true, nil
		}
	}
	return 0, nil, false, nil
}
