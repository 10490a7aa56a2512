// Package greengpu is a faithful reimplementation and simulation-based
// reproduction of GreenGPU (Ma, Li, Chen, Zhang, Wang — ICPP 2012), a
// holistic two-tier energy-management framework for GPU-CPU heterogeneous
// architectures:
//
//   - Tier 1 dynamically divides each iteration's workload between the CPU
//     and the GPU so both sides finish together, minimizing idle energy.
//   - Tier 2 scales the GPU core and memory clocks in a coordinated way
//     from their measured utilizations (a Weighted-Majority-Algorithm
//     learner over core×memory frequency pairs), and the CPU P-state via
//     the Linux ondemand policy.
//
// Because the paper's testbed is hardware (a GeForce 8800 GTX with
// Coolbits clock control, an AMD Phenom II X2, and two wall-power meters),
// this package ships a calibrated simulated testbed with the same control
// surfaces: per-domain frequency ladders, nvidia-smi-style utilization
// counters, wall-power models at the paper's two measurement boundaries,
// and the nine Table II evaluation workloads.
//
// This root package is the public facade: it re-exports the framework,
// testbed and workload types from the internal packages so downstream
// users can drive everything through one import.
//
// Quick start:
//
//	profiles, _ := greengpu.Rodinia()
//	kmeans, _ := greengpu.Profile(profiles, "kmeans")
//	res, _ := greengpu.Run(greengpu.NewTestbed(), kmeans,
//		greengpu.DefaultConfig(greengpu.Holistic))
//	fmt.Println(res.Energy, res.FinalRatio)
//
// The experiment harness regenerating every table and figure of the
// paper's evaluation lives in internal/experiments and is exposed through
// NewExperiments and the cmd/experiments binary.
package greengpu

import (
	"greengpu/internal/bridge"
	"greengpu/internal/core"
	"greengpu/internal/experiments"
	"greengpu/internal/hetero"
	"greengpu/internal/kernels"
	"greengpu/internal/testbed"
	"greengpu/internal/workload"
)

// Framework types, re-exported.
type (
	// Mode selects which GreenGPU tiers are active.
	Mode = core.Mode
	// Config parameterizes a framework run.
	Config = core.Config
	// Result summarizes a framework run.
	Result = core.Result
	// IterationStats describes one completed iteration.
	IterationStats = core.IterationStats
	// Levels names a clock operating point across the machine's domains.
	Levels = core.Levels

	// Machine is the assembled simulated testbed.
	Machine = testbed.Machine
	// WorkloadProfile is a calibrated evaluation workload.
	WorkloadProfile = workload.Profile
	// WorkloadSpec is the observable characterization a profile is
	// calibrated from.
	WorkloadSpec = workload.Spec

	// Experiments is the harness regenerating the paper's tables and
	// figures.
	Experiments = experiments.Env
)

// Framework modes, re-exported.
const (
	// Baseline is the Rodinia default: all work on the GPU, peak clocks.
	Baseline = core.Baseline
	// FreqScaling activates tier 2 only.
	FreqScaling = core.FreqScaling
	// Division activates tier 1 only.
	Division = core.Division
	// Holistic activates both tiers — GreenGPU proper.
	Holistic = core.Holistic
)

// NewTestbed assembles the default simulated testbed: GeForce 8800 GTX-
// class GPU, Phenom II X2-class CPU, PCIe-class interconnect, and two
// Wattsup-style power meters.
func NewTestbed() *Machine { return testbed.New() }

// DefaultConfig returns the paper's settings for the given mode: 3 s DVFS
// interval, WMA constants α_c=0.15, α_m=0.02, φ=0.3, β=0.2, 5% division
// step from a 30% initial CPU share with the oscillation safeguard on.
func DefaultConfig(mode Mode) Config { return core.DefaultConfig(mode) }

// Rodinia calibrates the nine Table II evaluation workloads against the
// default testbed devices.
func Rodinia() ([]*WorkloadProfile, error) {
	return workload.Rodinia(testbed.GeForce8800GTX(), testbed.PhenomIIX2())
}

// Profile selects a workload by name from a calibrated set.
func Profile(profiles []*WorkloadProfile, name string) (*WorkloadProfile, error) {
	return workload.ByName(profiles, name)
}

// Run executes the profile on the machine under cfg. The machine must be
// freshly assembled.
func Run(m *Machine, p *WorkloadProfile, cfg Config) (*Result, error) {
	return core.Run(m, p, cfg)
}

// NewExperiments builds the experiment harness over the default testbed
// and workload set.
func NewExperiments() (*Experiments, error) { return experiments.NewEnv() }

// Real-compute plane, re-exported. Kernel is the public contract: any
// computation whose iterations split into disjoint item ranges with a
// merge at the barrier can run under the division tier. The repository
// ships reference implementations (kmeans, hotspot, bfs, srad, pathfinder)
// in internal/kernels.
type (
	// Kernel is a real, splittable computation.
	Kernel = kernels.Kernel
	// Pool is a fixed-size worker pool.
	Pool = hetero.Pool
	// HeteroConfig parameterizes a two-pool divided run.
	HeteroConfig = hetero.Config
	// HeteroReport summarizes a two-pool divided run.
	HeteroReport = hetero.Report
	// MultiConfig parameterizes a k-way divided run.
	MultiConfig = hetero.MultiConfig
	// CharacterizeOptions tunes a real-kernel characterization.
	CharacterizeOptions = bridge.Options
	// Measurement is a real-kernel characterization result.
	Measurement = bridge.Measurement
)

// NewHeteroExecutor builds a two-pool executor running the kernel under
// the workload-division tier, driven by measured wall-clock times.
func NewHeteroExecutor(k Kernel, cpu, acc *Pool, cfg HeteroConfig) *hetero.Executor {
	return hetero.New(k, cpu, acc, cfg)
}

// NewMultiExecutor builds a k-way executor dividing each iteration across
// all pools proportionally to their measured processing rates.
func NewMultiExecutor(k Kernel, pools []*Pool, cfg MultiConfig) *hetero.MultiExecutor {
	return hetero.NewMulti(k, pools, cfg)
}

// Characterize measures a real kernel on two pools and derives a
// simulated-workload Spec, so energy-management policies can be explored
// on the simulated testbed before touching the real system.
func Characterize(mk func() Kernel, cpu, acc *Pool, opts CharacterizeOptions) (*Measurement, error) {
	return bridge.Characterize(mk, cpu, acc, opts)
}

// Calibrate turns a workload Spec (hand-written or produced by
// Characterize) into a profile runnable on the default simulated testbed.
func Calibrate(spec WorkloadSpec) (*WorkloadProfile, error) {
	return workload.Calibrate(spec, testbed.GeForce8800GTX(), testbed.PhenomIIX2())
}
