package experiments

import (
	"cohort/internal/parallel"
	"cohort/internal/trace"
)

// workload is one generated trace together with its content fingerprint.
// The fingerprint is computed once, where the trace is generated, and
// travels with the trace into runSystem and optimizeTimers, whose memo keys
// are built on it — so nothing has to remember traces by pointer.
type workload struct {
	tr *trace.Trace
	fp string
}

// newWorkload fingerprints a freshly generated trace.
func newWorkload(tr *trace.Trace) *workload {
	return &workload{tr: tr, fp: fingerprint(tr)}
}

// workload generates one profile's trace on the options' platform.
func (o *Options) workload(p trace.Profile) *workload {
	return newWorkload(p.Generate(o.NCores, 64, o.Seed))
}

// sweep runs cell over the grid of the named profiles (none = the options'
// selection) × variants. It validates and sizes the profiles once,
// generates and fingerprints each profile's trace once (fanned out over the
// profiles), then fans the cells out profile-major at o.jobs() and returns
// their results in serial order: cell (pi, vi) lands at pi·len(variants)+vi.
// Cells run concurrently, so they may write nothing but their own result.
func sweep[V, R any](o *Options, names []string, variants []V, cell func(w *workload, v V) (R, error)) ([]R, error) {
	profiles, err := o.profiles(names...)
	if err != nil {
		return nil, err
	}
	ws := parallel.Map(o.jobs(), len(profiles), func(pi int) *workload {
		return o.workload(profiles[pi])
	})
	return parallel.MapErr(o.jobs(), len(ws)*len(variants), func(ci int) (R, error) {
		return cell(ws[ci/len(variants)], variants[ci%len(variants)])
	})
}

// perProfile is a sweep of the options' profile selection with one cell
// per profile.
func perProfile[R any](o *Options, cell func(w *workload) (R, error)) ([]R, error) {
	return sweep(o, nil, []struct{}{{}}, func(w *workload, _ struct{}) (R, error) { return cell(w) })
}
