package division

import (
	"fmt"
	"time"
)

// Policy is a workload-division strategy: anything that proposes the next
// CPU share from the observed per-side execution times. GreenGPU's
// step-based Divider is one Policy; Qilin-style adaptive mapping is
// another. The framework (internal/core) accepts any Policy, which is the
// integration point §V-B of the paper mentions for "other sophisticated
// global optimal algorithms".
type Policy interface {
	// Ratio returns the CPU share for the next iteration.
	Ratio() float64
	// Observe feeds the completed iteration's per-side times and
	// returns the ratio for the next iteration.
	Observe(tc, tg time.Duration) float64
	// History returns the decision log.
	History() []Observation
}

// Divider implements Policy.
var _ Policy = (*Divider)(nil)

// QilinConfig parameterizes the adaptive-mapping divider.
type QilinConfig struct {
	// Initial is the first profiling ratio.
	Initial float64
	// Probe is the second profiling ratio; it must differ from Initial
	// so the linear fit has two distinct abscissae per side.
	Probe float64
	// Min and Max clamp the CPU share.
	Min, Max float64
}

// DefaultQilinConfig profiles at 30% and 50% CPU and allows the full
// range, mirroring Qilin's train-then-map flow at our iteration scale.
func DefaultQilinConfig() QilinConfig {
	return QilinConfig{Initial: 0.30, Probe: 0.50, Min: 0, Max: 1}
}

// Validate reports the first problem with the configuration, if any.
func (c *QilinConfig) Validate() error {
	switch {
	case !(0 <= c.Min && c.Min < c.Max && c.Max <= 1):
		return fmt.Errorf("division: qilin bounds [%v, %v] invalid", c.Min, c.Max)
	case !(c.Min <= c.Initial && c.Initial <= c.Max):
		return fmt.Errorf("division: qilin Initial = %v outside bounds", c.Initial)
	case !(c.Min <= c.Probe && c.Probe <= c.Max):
		return fmt.Errorf("division: qilin Probe = %v outside bounds", c.Probe)
	case c.Probe == c.Initial:
		return fmt.Errorf("division: qilin Probe must differ from Initial")
	}
	return nil
}

// Qilin is an adaptive-mapping divider in the style of Luk, Hong & Kim
// (MICRO 2009), the paper's related work [16]: it fits linear per-side
// time models
//
//	tc(r) = a_c + b_c·r        tg(r) = a_g + b_g·(1−r)
//
// from the observed (share, time) samples and jumps directly to the
// predicted balance point r* = (a_g + b_g − a_c) / (b_c + b_g), refining
// the fit with every iteration. Compared with GreenGPU's fixed-step
// heuristic it converges in one move after profiling, at the cost of
// trusting the linear model; the comparison experiment quantifies both.
type Qilin struct {
	cfg QilinConfig
	r   float64

	// Samples for the two per-side fits: x is the side's share.
	cpuX, cpuY []float64
	gpuX, gpuY []float64

	iter    int
	history []Observation
}

// NewQilin creates an adaptive-mapping divider. It panics on an invalid
// configuration; use QilinConfig.Validate to check first.
func NewQilin(cfg QilinConfig) *Qilin {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Qilin{cfg: cfg, r: cfg.Initial}
}

// Ratio implements Policy.
func (q *Qilin) Ratio() float64 { return q.r }

// History implements Policy.
func (q *Qilin) History() []Observation { return q.history }

// Observe implements Policy.
func (q *Qilin) Observe(tc, tg time.Duration) float64 {
	if tc < 0 || tg < 0 {
		panic(fmt.Sprintf("division: negative execution time tc=%v tg=%v", tc, tg))
	}
	obs := Observation{Iteration: q.iter, R: q.r, TC: tc, TG: tg}
	q.iter++

	if q.r > 0 {
		q.cpuX, q.cpuY = pushSample(q.cpuX, q.cpuY, q.r, tc.Seconds())
	}
	if q.r < 1 {
		q.gpuX, q.gpuY = pushSample(q.gpuX, q.gpuY, 1-q.r, tg.Seconds())
	}

	next, action := q.decide()
	obs.NewR = next
	obs.Action = action
	q.history = append(q.history, obs)
	q.r = next
	metricObservations.Inc()
	if action == ActionHold || action == ActionHoldSafeguard {
		metricHolds.Inc()
	}
	return next
}

func (q *Qilin) decide() (float64, Action) {
	// Profiling phase: we need two distinct abscissae per side.
	if !distinct(q.cpuX) || !distinct(q.gpuX) {
		if q.r != q.cfg.Probe {
			if q.cfg.Probe > q.r {
				return q.cfg.Probe, ActionIncrease
			}
			return q.cfg.Probe, ActionDecrease
		}
		return q.r, ActionHold
	}
	ac, bc, ok1 := fitLine(q.cpuX, q.cpuY)
	ag, bg, ok2 := fitLine(q.gpuX, q.gpuY)
	if !ok1 || !ok2 || bc+bg <= 0 {
		return q.r, ActionHold
	}
	star := (ag + bg - ac) / (bc + bg)
	if star < q.cfg.Min {
		star = q.cfg.Min
	}
	if star > q.cfg.Max {
		star = q.cfg.Max
	}
	switch {
	case star > q.r:
		return star, ActionIncrease
	case star < q.r:
		return star, ActionDecrease
	default:
		return q.r, ActionHold
	}
}

// qilinWindow bounds the per-side fit history: a sliding window keeps the
// refit O(1) per iteration and lets the linear models track workload phase
// changes instead of averaging over the whole run.
const qilinWindow = 32

func pushSample(xs, ys []float64, x, y float64) ([]float64, []float64) {
	xs = append(xs, x)
	ys = append(ys, y)
	if len(xs) > qilinWindow {
		xs = xs[len(xs)-qilinWindow:]
		ys = ys[len(ys)-qilinWindow:]
	}
	return xs, ys
}

// distinct reports whether xs contains at least two distinct values.
func distinct(xs []float64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i] != xs[0] {
			return true
		}
	}
	return false
}

// fitLine least-squares fits y = a + b·x. ok is false when the abscissae
// are degenerate.
func fitLine(xs, ys []float64) (a, b float64, ok bool) {
	n := float64(len(xs))
	if n < 2 {
		return 0, 0, false
	}
	var sx, sy, sxx, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	den := n*sxx - sx*sx
	if den == 0 {
		return 0, 0, false
	}
	b = (n*sxy - sx*sy) / den
	a = (sy - b*sx) / n
	return a, b, true
}
