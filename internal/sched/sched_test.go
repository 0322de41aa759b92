package sched

import (
	"testing"

	"cohort/internal/analysis"
)

func bound(core int, wcml int64) analysis.CoreBound {
	return analysis.CoreBound{Core: core, WCMLBound: wcml, WCL: 100}
}

func TestTaskValidate(t *testing.T) {
	good := Task{Name: "t", Core: 0, Criticality: 1, ComputeCycles: 10, Deadline: 100}
	if err := good.Validate(2, 2); err != nil {
		t.Fatal(err)
	}
	cases := []Task{
		{Name: "core", Core: 5, Criticality: 1, Deadline: 1},
		{Name: "crit", Core: 0, Criticality: 0, Deadline: 1},
		{Name: "crit2", Core: 0, Criticality: 3, Deadline: 1},
		{Name: "compute", Core: 0, Criticality: 1, ComputeCycles: -1, Deadline: 1},
		{Name: "deadline", Core: 0, Criticality: 1, Deadline: 0},
		{Name: "gamma", Core: 0, Criticality: 1, Deadline: 1, Gamma: []int64{1}},
	}
	for _, c := range cases {
		if err := c.Validate(2, 2); err == nil {
			t.Errorf("task %q: invalid accepted", c.Name)
		}
	}
}

func TestWCET(t *testing.T) {
	task := Task{ComputeCycles: 1000}
	if got := task.WCET(5000); got != 6000 {
		t.Fatalf("WCET = %d", got)
	}
	if got := task.WCET(analysis.Unbounded); got != analysis.Unbounded {
		t.Fatalf("unbounded WCET = %d", got)
	}
}

func TestAdmission(t *testing.T) {
	tasks := []Task{
		{Name: "ctrl", Core: 0, Criticality: 2, ComputeCycles: 1000, Deadline: 10_000,
			Gamma: []int64{8000, 8000}},
		{Name: "info", Core: 1, Criticality: 1, ComputeCycles: 500, Deadline: 5_000},
	}
	bounds := []analysis.CoreBound{bound(0, 7000), bound(1, 4000)}
	vs, err := Admission(tasks, bounds, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !vs[0].Schedulable() || !vs[1].Schedulable() {
		t.Fatalf("expected schedulable: %+v", vs)
	}
	if vs[0].WCET != 8000 {
		t.Fatalf("WCET = %d", vs[0].WCET)
	}
	if !SetSchedulable(vs) {
		t.Fatal("set should be schedulable")
	}

	// Tighten core 0's bound past its deadline: unschedulable.
	bounds[0] = bound(0, 12_000)
	vs, err = Admission(tasks, bounds, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if vs[0].Schedulable() || SetSchedulable(vs) {
		t.Fatal("deadline violation missed")
	}

	// Γ violation with a met deadline is still a failure.
	bounds[0] = bound(0, 8_500) // WCET 9500 ≤ 10000 but Γ = 8000 < 8500
	vs, _ = Admission(tasks, bounds, 1, 2)
	if vs[0].MeetsDeadline != true || vs[0].MeetsGamma != false || vs[0].Schedulable() {
		t.Fatalf("Γ violation missed: %+v", vs[0])
	}
}

func TestDegradedTasksAreExempt(t *testing.T) {
	tasks := []Task{
		{Name: "lo", Core: 0, Criticality: 1, ComputeCycles: 1, Deadline: 10,
			Gamma: []int64{5, 5}},
	}
	// At mode 2 the task is degraded: unbounded WCML is acceptable.
	bounds := []analysis.CoreBound{bound(0, analysis.Unbounded)}
	vs, err := Admission(tasks, bounds, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !vs[0].Degraded || !vs[0].Schedulable() {
		t.Fatalf("degraded task should be exempt: %+v", vs[0])
	}
	// At mode 1 the same unbounded task fails.
	vs, _ = Admission(tasks, bounds, 1, 2)
	if vs[0].Schedulable() {
		t.Fatal("unbounded non-degraded task accepted")
	}
}

func TestAdmissionValidation(t *testing.T) {
	tasks := []Task{{Name: "x", Core: 0, Criticality: 1, Deadline: 1}}
	bounds := []analysis.CoreBound{bound(0, 1)}
	if _, err := Admission(tasks, bounds, 0, 2); err == nil {
		t.Fatal("mode 0 accepted")
	}
	if _, err := Admission(tasks, bounds, 3, 2); err == nil {
		t.Fatal("mode beyond levels accepted")
	}
	bad := []Task{{Name: "x", Core: 9, Criticality: 1, Deadline: 1}}
	if _, err := Admission(bad, bounds, 1, 2); err == nil {
		t.Fatal("bad task accepted")
	}
}

func TestLowestFeasibleMode(t *testing.T) {
	tasks := []Task{
		{Name: "hi", Core: 0, Criticality: 3, ComputeCycles: 0, Deadline: 5000},
		{Name: "lo", Core: 1, Criticality: 1, ComputeCycles: 0, Deadline: 1 << 40},
	}
	// Bounds shrink as the mode deepens (co-runner timers drop out).
	perMode := [][]analysis.CoreBound{
		{bound(0, 9000), bound(1, 9000)},               // mode 1: hi misses deadline
		{bound(0, 6000), bound(1, 9000)},               // mode 2: still misses
		{bound(0, 4000), bound(1, analysis.Unbounded)}, // mode 3: hi fits, lo degraded
	}
	mode, vs, ok, err := LowestFeasibleMode(tasks, perMode, 1)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || mode != 3 {
		t.Fatalf("mode = %d ok = %v, want 3/true", mode, ok)
	}
	if !vs[1].Degraded {
		t.Fatal("low task should be degraded at mode 3")
	}
	// Never de-escalates below `from`.
	mode, _, ok, _ = LowestFeasibleMode(tasks, perMode, 3)
	if !ok || mode != 3 {
		t.Fatalf("from=3: mode = %d", mode)
	}
	// Infeasible everywhere.
	hopeless := []Task{{Name: "h", Core: 0, Criticality: 3, Deadline: 1}}
	_, _, ok, err = LowestFeasibleMode(hopeless, perMode, 1)
	if err != nil || ok {
		t.Fatalf("hopeless set: ok=%v err=%v", ok, err)
	}
}
