// Package governor implements the Linux ondemand CPU frequency governor
// that GreenGPU adopts unchanged for the CPU tier (paper §IV), and a
// hardened wrapper that keeps it sane under sensor faults.
//
// The ondemand behaviour follows Pallipadi & Starikovskiy's description,
// which the paper quotes: "If CPU utilization rises above an upper
// utilization threshold value, the ondemand governor increases the CPU
// frequency to the highest available frequency. When CPU utilization falls
// below a low utilization threshold, the governor sets the CPU to run at the
// next lowest frequency."
package governor

import "greengpu/internal/telemetry"

// Package metrics (see docs/OBSERVABILITY.md). No-ops unless telemetry is
// enabled.
var (
	metricDecisions = telemetry.NewCounter("greengpu_governor_decisions_total",
		"CPU governor sampling decisions (Policy.Next calls) across all runs.")
	metricJumpsToMax = telemetry.NewCounter("greengpu_governor_jumps_to_max_total",
		"Ondemand decisions that jumped straight to the highest P-state.")
)

// Policy decides the next frequency level from the observed utilization.
// Levels are indices into an ascending frequency ladder with nLevels
// entries; current is the level in force during the sampled interval.
type Policy interface {
	// Next returns the level to enforce for the coming interval.
	Next(util float64, current, nLevels int) int
}

// Ondemand's thresholds.
const (
	// upThreshold jumps straight to the highest level when exceeded.
	// Linux's default is 0.80.
	upThreshold = 0.80
	// downThreshold steps one level down when utilization falls below it.
	// Linux derives it as upThreshold minus a down-differential of 10
	// points by default; 0.30 matches the kernel's conservative effective
	// behaviour for mostly-idle loads.
	downThreshold = 0.30
)

// Ondemand is the Linux ondemand governor (linux-2.6.9 and later).
type Ondemand struct{}

// NewOndemand returns an ondemand governor.
func NewOndemand() *Ondemand { return &Ondemand{} }

// Next implements Policy: above upThreshold jump to the top level; below
// downThreshold step down one level; otherwise hold.
func (*Ondemand) Next(util float64, current, nLevels int) int {
	if nLevels <= 0 {
		panic("governor: nLevels must be positive")
	}
	metricDecisions.Inc()
	current = clampLevel(current, nLevels)
	switch {
	case util > upThreshold:
		metricJumpsToMax.Inc()
		return nLevels - 1
	case util < downThreshold && current > 0:
		return current - 1
	default:
		return current
	}
}

func clampLevel(l, n int) int {
	if l < 0 {
		return 0
	}
	if l >= n {
		return n - 1
	}
	return l
}
