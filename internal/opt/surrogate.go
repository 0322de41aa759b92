// Tier-2 surrogate fitness: a curve-bound replica of the exact evaluation
// used to prefilter GA children before the exact oracle runs. The surrogate
// reads each timed core's (hits, misses) split straight from the hit-curve
// index with Lookup — no memo, no allocation, no Evaluation assembly — and
// mirrors evaluateSrc's arithmetic in the same floating-point order, so
// wherever the curve answers, the surrogate fitness *equals* the exact
// fitness bit for bit. Where an incomplete curve cannot answer, the
// surrogate substitutes the optimistic all-hit split, which only lowers the
// objective and can only clear — never raise — constraint violations:
// either way the surrogate never exceeds the exact fitness, which is the
// safety property the pruning rule in Optimize relies on (a pruned child's
// exact fitness is provably above the elite frontier).
package opt

import (
	"cohort/internal/analysis"
	"cohort/internal/config"
)

// DefaultSurrogateMargin is the relative frontier margin used when
// GAConfig.SurrogateMargin is left zero: children whose surrogate fitness
// is within 25% above the worst elite are still evaluated exactly.
const DefaultSurrogateMargin = 0.25

// surrogateFitness computes the tier-2 fitness bound of a gene vector. Only
// valid in curve mode (e.curves installed by installCurves). The full timer
// vector is expanded into a scratch buffer reused across children, so the
// prefilter allocates nothing per child.
func (e *evaluator) surrogateFitness(genes []config.Timer) float64 {
	c := e.c
	p := c.p
	if e.surrTimers == nil {
		e.surrTimers = make([]config.Timer, len(p.Streams))
	}
	timers := e.surrTimers
	g := 0
	for i := range p.Streams {
		if p.Timed[i] {
			timers[i] = genes[g]
			g++
		} else {
			timers[i] = config.TimerMSI
		}
	}
	// Timer-dependent part of every core's WCL — the same hoist as
	// evaluateSrc.
	var timerSum int64
	for _, th := range timers {
		if th >= 0 {
			timerSum += int64(th) + c.sw
		}
	}
	var objective, violation float64
	for i := range p.Streams {
		wcl := c.wclBase + timerSum
		if timers[i] >= 0 {
			wcl -= int64(timers[i]) + c.sw
		}
		lambda := c.lambdas[i]
		var wcml int64
		if timers[i].Timed() {
			h, m, ok := e.curves[i].Lookup(timers[i])
			if !ok {
				// Beyond an incomplete curve's frontier: assume every access
				// a guaranteed hit — the optimistic extreme of the split.
				h, m = lambda, 0
			}
			wcml = analysis.WCML(h, m, p.Lat.Hit, wcl)
		} else {
			wcml = analysis.WCMLAllMiss(lambda, wcl)
		}
		if lambda > 0 {
			term := float64(wcml) / float64(lambda)
			if p.Timed[i] {
				objective += term
			} else {
				objective += msiObjectiveWeight * term
			}
		}
		if timers[i].Timed() && p.Gamma != nil && p.Gamma[i] > 0 && wcml > p.Gamma[i] {
			violation += float64(wcml-p.Gamma[i]) / float64(p.Gamma[i])
		}
	}
	// Same violation folding as fitness().
	if violation == 0 {
		return objective
	}
	return 1e18 * (1 + violation)
}
