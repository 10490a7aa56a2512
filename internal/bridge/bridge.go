// Package bridge connects the repository's two execution planes: it
// characterizes a real kernel (internal/kernels) by measuring it on actual
// worker pools (internal/hetero) and emits a workload.Spec that makes the
// simulated testbed mirror the measured behaviour.
//
// This is the workflow a downstream user of GreenGPU wants: profile your
// own divisible computation once, then explore division policies, DVFS
// settings and what-if hardware configurations in simulation — where a
// thousand runs cost milliseconds — before committing to one on the real
// system.
//
// What can and cannot be measured from portable Go code:
//
//   - The CPU↔accelerator speed ratio (workload.Spec.CPUSlowdown) and the
//     per-iteration execution time ARE measured, by timing a few
//     iterations pinned entirely to each pool.
//   - GPU core/memory utilizations are NOT observable from Go (they come
//     from hardware counters on a real system), so the caller supplies the
//     utilization targets — or accepts the defaults of a medium-core,
//     low-memory kernel, the most common class in Table II.
package bridge

import (
	"fmt"
	"time"

	"greengpu/internal/hetero"
	"greengpu/internal/kernels"
	"greengpu/internal/workload"
)

// Options tunes a characterization run.
type Options struct {
	// Name labels the resulting Spec. Empty uses the kernel's name.
	Name string

	// MeasureIterations is how many iterations to time on each pool
	// (default 3). More iterations smooth scheduler jitter.
	MeasureIterations int

	// TimeScale multiplies measured wall seconds into simulated
	// IterationSeconds (default 1000: a 20 ms real iteration becomes a
	// 20 s simulated one, comfortably above the DVFS interval). The
	// scale cancels out of every ratio the framework optimizes.
	TimeScale float64

	// CoreUtil and MemUtil are the GPU-side utilization targets for the
	// simulated profile (defaults 0.60 and 0.35 — Table II's
	// medium-core/low-memory class).
	CoreUtil, MemUtil float64

	// SpecIterations is the simulated run length (default 10).
	SpecIterations int

	// TransferMB and RepartitionMB parameterize the simulated bus
	// traffic (defaults 100 and 100).
	TransferMB, RepartitionMB float64
}

func (o *Options) setDefaults(k kernels.Kernel) {
	if o.Name == "" {
		o.Name = k.Name()
	}
	if o.MeasureIterations <= 0 {
		o.MeasureIterations = 3
	}
	if o.TimeScale <= 0 {
		o.TimeScale = 1000
	}
	if o.CoreUtil == 0 && o.MemUtil == 0 {
		o.CoreUtil, o.MemUtil = 0.60, 0.35
	}
	if o.SpecIterations <= 0 {
		o.SpecIterations = 10
	}
	if o.TransferMB <= 0 {
		o.TransferMB = 100
	}
	if o.RepartitionMB <= 0 {
		o.RepartitionMB = 100
	}
}

// Measurement reports what Characterize observed.
type Measurement struct {
	// AccIteration and CPUIteration are mean measured wall times for one
	// full iteration pinned to each pool.
	AccIteration time.Duration
	CPUIteration time.Duration
	// Slowdown is CPUIteration / AccIteration.
	Slowdown float64
	// Spec is the derived simulated-workload characterization.
	Spec workload.Spec
}

// Characterize measures a kernel on the two pools and derives a simulated
// workload Spec. mk must return a fresh kernel instance per call (kernel
// state is consumed by measurement); the two instances must be built from
// the same parameters.
func Characterize(mk func() kernels.Kernel, cpu, acc *hetero.Pool, opts Options) (*Measurement, error) {
	if mk == nil {
		return nil, fmt.Errorf("bridge: nil kernel factory")
	}
	for _, p := range []*hetero.Pool{cpu, acc} {
		if p == nil {
			return nil, fmt.Errorf("bridge: nil pool")
		}
		if err := p.Validate(); err != nil {
			return nil, err
		}
	}
	probe := mk()
	if probe == nil {
		return nil, fmt.Errorf("bridge: kernel factory returned nil")
	}
	opts.setDefaults(probe)

	accT, err := measure(mk(), acc, opts.MeasureIterations)
	if err != nil {
		return nil, err
	}
	cpuT, err := measure(mk(), cpu, opts.MeasureIterations)
	if err != nil {
		return nil, err
	}
	if accT <= 0 || cpuT <= 0 {
		return nil, fmt.Errorf("bridge: degenerate measurement (acc %v, cpu %v)", accT, cpuT)
	}

	m := &Measurement{
		AccIteration: accT,
		CPUIteration: cpuT,
		Slowdown:     float64(cpuT) / float64(accT),
	}
	m.Spec = workload.Spec{
		Name:             opts.Name,
		Description:      fmt.Sprintf("characterized from real kernel %q", probe.Name()),
		IterationSeconds: accT.Seconds() * opts.TimeScale,
		Iterations:       opts.SpecIterations,
		CPUSlowdown:      m.Slowdown,
		TransferMB:       opts.TransferMB,
		RepartitionMB:    opts.RepartitionMB,
		Phases: []workload.PhaseTarget{{
			Label:    "measured",
			Fraction: 1,
			CoreUtil: opts.CoreUtil,
			MemUtil:  opts.MemUtil,
		}},
	}
	if err := m.Spec.Validate(); err != nil {
		return nil, fmt.Errorf("bridge: derived spec invalid: %w", err)
	}
	return m, nil
}

// measure runs n iterations of the kernel pinned entirely to one pool and
// returns the mean per-iteration time the pool reported.
func measure(k kernels.Kernel, pool *hetero.Pool, n int) (time.Duration, error) {
	if k == nil {
		return 0, fmt.Errorf("bridge: kernel factory returned nil")
	}
	var total time.Duration
	measured := 0
	for i := 0; i < n; i++ {
		partials, elapsed := pool.Process(k, 0, k.Items())
		total += elapsed
		measured++
		if !k.EndIteration(partials) {
			break
		}
	}
	if measured == 0 {
		return 0, fmt.Errorf("bridge: kernel yielded no iterations")
	}
	return total / time.Duration(measured), nil
}
