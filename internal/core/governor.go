package core

import (
	"errors"
	"fmt"
)

// Governor is a closed-loop mode-switch controller: it samples one core's
// accumulated memory latency every Window cycles and escalates the operating
// mode when a window's latency exceeds Budget. This automates the Fig. 7
// flow — where the experiment schedules switches at fixed instants, the
// governor derives them from observed behaviour, realizing the paper's §I
// direction of hardware cooperating with the system scheduler on mode
// switches instead of blindly suspending low-criticality tasks.
type Governor struct {
	// Core is the monitored core (the highest-criticality one in the
	// paper's scenario).
	Core int
	// Window is the sampling period in cycles.
	Window int64
	// Budget is the maximum memory latency (cycles) the monitored core may
	// accumulate per window before the governor escalates.
	Budget int64
	// MaxMode caps the escalation (defaults to the system's level count
	// when 0).
	MaxMode int
}

// GovernorDecision records one sampling point.
type GovernorDecision struct {
	// At is the sampling cycle.
	At int64
	// WindowLatency is the memory latency the monitored core accumulated
	// since the previous sample.
	WindowLatency int64
	// Escalated reports whether this sample triggered a mode switch.
	Escalated bool
	// Mode is the operating mode after the sample.
	Mode int
}

// SetGovernor installs the controller. Must be called before Run.
func (s *System) SetGovernor(g Governor) error {
	if s.ran {
		return errors.New("core: SetGovernor after Run")
	}
	if g.Core < 0 || g.Core >= len(s.cores) {
		return fmt.Errorf("core: governor core %d out of range", g.Core)
	}
	if g.Window <= 0 {
		return fmt.Errorf("core: governor window %d must be positive", g.Window)
	}
	if g.Budget <= 0 {
		return fmt.Errorf("core: governor budget %d must be positive", g.Budget)
	}
	if g.MaxMode == 0 {
		g.MaxMode = s.cfg.Levels
	}
	if g.MaxMode < 1 || g.MaxMode > s.cfg.Levels {
		return fmt.Errorf("core: governor max mode %d out of range [1,%d]", g.MaxMode, s.cfg.Levels)
	}
	s.governor = &g
	return nil
}

// GovernorHistory returns the decisions taken during the run.
func (s *System) GovernorHistory() []GovernorDecision {
	return append([]GovernorDecision(nil), s.governorLog...)
}

// startGovernor schedules the first sample; called from Run.
func (s *System) startGovernor() {
	if s.governor == nil {
		return
	}
	s.atEvent(s.governor.Window, evGovernorSample, 0, 0, 0)
}

// governorSample evaluates one window and escalates if over budget.
//
// The governor is opt-in control machinery: its log grows by append and an
// escalation runs applyModeSwitch, so the subtree is exempt from the
// hot-path allocation contract.
//
//cohort:hotpath exempt
func (s *System) governorSample(now int64) {
	g := s.governor
	mon := &s.run.Cores[g.Core]
	delta := mon.TotalLatency - s.governorLast
	s.governorLast = mon.TotalLatency
	dec := GovernorDecision{At: now, WindowLatency: delta, Mode: s.mode}
	if delta > g.Budget && s.mode < g.MaxMode {
		s.applyModeSwitch(now, s.mode+1)
		dec.Escalated = true
		dec.Mode = s.mode
	}
	s.governorLog = append(s.governorLog, dec)
	// Keep sampling while the monitored core is still working.
	if !s.cores[g.Core].finished {
		s.atEvent(now+g.Window, evGovernorSample, 0, 0, 0)
	}
}
