// Package division implements GreenGPU's first tier: dynamic workload
// division between the CPU and GPU (paper §V-B).
//
// The divider maintains r, the fraction of each iteration's work assigned to
// the CPU (the GPU takes 1−r). After every iteration it compares the two
// sides' execution times tc and tg: if the CPU was slower it moves one step
// of work to the GPU, if the GPU was slower it moves one step to the CPU.
// Balancing the two sides minimizes the idle energy burned by whichever side
// finishes first and waits.
//
// Because divisions are discrete (the paper uses a 5% step), the optimum may
// sit between two grid points and the raw heuristic would oscillate between
// them forever, paying division overhead each flip. The oscillation
// safeguard linearly scales the previous iteration's times to the candidate
// division —
//
//	tc' = tc · r'/r,   tg' = tg · (1−r')/(1−r)
//
// — and holds the current division whenever the predicted comparison flips
// direction without improving the balance, the scheme of §V-B. (A flip that
// strictly reduces the predicted |tc − tg| is allowed: landing next to the
// optimum from the far side is convergence, not oscillation. In the paper's
// 12.5% example the two grid neighbours are symmetric around the optimum,
// so the predicted flip does not improve the balance and the ratio holds.)
package division

import (
	"fmt"
	"math"
	"time"

	"greengpu/internal/telemetry"
)

// Package metrics (see docs/OBSERVABILITY.md). No-ops unless telemetry is
// enabled.
var (
	metricObservations = telemetry.NewCounter("greengpu_division_observations_total",
		"Tier-1 end-of-iteration observations (Policy.Observe calls) across all runs.")
	metricHolds = telemetry.NewCounter("greengpu_division_holds_total",
		"Tier-1 decisions that held the current ratio (including safeguard holds).")
)

// Action describes what the divider decided after an iteration.
type Action int

// Divider decisions.
const (
	// ActionHold keeps the ratio: the sides finished together or the
	// candidate was clamped away.
	ActionHold Action = iota
	// ActionIncrease moved one step of work to the CPU.
	ActionIncrease
	// ActionDecrease moved one step of work to the GPU.
	ActionDecrease
	// ActionHoldSafeguard kept the ratio because the oscillation
	// safeguard predicted a comparison flip.
	ActionHoldSafeguard
)

// String returns a short label for traces.
func (a Action) String() string {
	switch a {
	case ActionHold:
		return "hold"
	case ActionIncrease:
		return "cpu+"
	case ActionDecrease:
		return "cpu-"
	case ActionHoldSafeguard:
		return "hold(safeguard)"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Config parameterizes the divider.
type Config struct {
	// Step is the division adjustment granularity. The paper uses 0.05:
	// smaller converges slowly, larger oscillates more.
	Step float64
	// Initial is the starting CPU share. The paper starts experiments at
	// 0.30 for faster convergence but shows convergence from any start.
	Initial float64
	// Min and Max clamp the CPU share.
	Min, Max float64
	// Safeguard enables the oscillation safeguard.
	Safeguard bool
}

// DefaultConfig returns the paper's settings: 5% step, 30% initial CPU
// share, full [0,1] range, safeguard on.
func DefaultConfig() Config {
	return Config{Step: 0.05, Initial: 0.30, Min: 0, Max: 1, Safeguard: true}
}

// Validate reports the first problem with the configuration, if any.
func (c *Config) Validate() error {
	switch {
	case !(0 < c.Step && c.Step <= 0.5):
		return fmt.Errorf("division: Step = %v, must be in (0, 0.5]", c.Step)
	case !(0 <= c.Min && c.Min < c.Max && c.Max <= 1):
		return fmt.Errorf("division: bounds [%v, %v] invalid", c.Min, c.Max)
	case !(c.Min <= c.Initial && c.Initial <= c.Max):
		return fmt.Errorf("division: Initial = %v outside [%v, %v]", c.Initial, c.Min, c.Max)
	}
	return nil
}

// Observation records one iteration's decision, for traces and tests.
type Observation struct {
	Iteration int
	R         float64       // CPU share in force during the iteration
	TC        time.Duration // CPU-side execution time
	TG        time.Duration // GPU-side execution time
	Action    Action
	NewR      float64 // CPU share for the next iteration
}

// Divider is the workload-division controller.
type Divider struct {
	cfg     Config
	r       float64
	iter    int
	history []Observation
}

// New creates a divider. It panics on an invalid configuration; use
// Config.Validate to check first.
func New(cfg Config) *Divider {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Divider{cfg: cfg, r: cfg.Initial}
}

// Config returns the divider's configuration.
func (d *Divider) Config() Config { return d.cfg }

// Ratio returns the CPU share to use for the next iteration.
func (d *Divider) Ratio() float64 { return d.r }

// Iterations returns how many observations have been made.
func (d *Divider) Iterations() int { return d.iter }

// History returns the recorded observations.
func (d *Divider) History() []Observation { return d.history }

// Observe feeds the execution times of the iteration that just completed
// (run at the current ratio) and returns the ratio for the next iteration.
// Negative durations panic.
func (d *Divider) Observe(tc, tg time.Duration) float64 {
	if tc < 0 || tg < 0 {
		panic(fmt.Sprintf("division: negative execution time tc=%v tg=%v", tc, tg))
	}
	obs := Observation{Iteration: d.iter, R: d.r, TC: tc, TG: tg}
	d.iter++

	action, newR := d.decide(tc, tg)
	obs.Action = action
	obs.NewR = newR
	d.history = append(d.history, obs)
	d.r = newR
	metricObservations.Inc()
	if action == ActionHold || action == ActionHoldSafeguard {
		metricHolds.Inc()
	}
	return newR
}

func (d *Divider) decide(tc, tg time.Duration) (Action, float64) {
	r := d.r
	var candidate float64
	var action Action
	switch {
	case tc > tg:
		candidate, action = r-d.cfg.Step, ActionDecrease
	case tc < tg:
		candidate, action = r+d.cfg.Step, ActionIncrease
	default:
		return ActionHold, r
	}
	if candidate < d.cfg.Min {
		candidate = d.cfg.Min
	}
	if candidate > d.cfg.Max {
		candidate = d.cfg.Max
	}
	if candidate == r {
		return ActionHold, r
	}
	if d.cfg.Safeguard && d.flipPredicted(tc, tg, r, candidate) {
		return ActionHoldSafeguard, r
	}
	return action, candidate
}

// flipPredicted linearly scales the observed times to the candidate ratio
// and reports whether the comparison direction would invert *without
// improving the balance* — the oscillation signature. When a side currently
// has no work (r = 0 or r = 1) its per-unit time is unknown and no
// prediction is possible, so the move is allowed.
func (d *Divider) flipPredicted(tc, tg time.Duration, r, candidate float64) bool {
	if r <= 0 || r >= 1 {
		return false
	}
	tcP := float64(tc) * candidate / r
	tgP := float64(tg) * (1 - candidate) / (1 - r)
	flipped := (tc < tg && tcP > tgP) || (tc > tg && tcP < tgP)
	if !flipped {
		return false
	}
	return math.Abs(tcP-tgP) >= math.Abs(float64(tc-tg))
}

// Converged reports whether the last k observations all kept the ratio
// (plain holds or safeguard holds). It returns false with fewer than k
// observations.
func (d *Divider) Converged(k int) bool {
	if k <= 0 || len(d.history) < k {
		return false
	}
	for _, obs := range d.history[len(d.history)-k:] {
		if obs.Action == ActionIncrease || obs.Action == ActionDecrease {
			return false
		}
	}
	return true
}
