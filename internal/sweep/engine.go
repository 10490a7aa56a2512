package sweep

import (
	"context"
	"fmt"
	"time"

	"greengpu/internal/bus"
	"greengpu/internal/core"
	"greengpu/internal/cpusim"
	"greengpu/internal/faultinject"
	"greengpu/internal/gpusim"
	"greengpu/internal/parallel"
	"greengpu/internal/runcache"
	"greengpu/internal/sim"
	"greengpu/internal/telemetry"
	"greengpu/internal/testbed"
	"greengpu/internal/trace"
	"greengpu/internal/units"
	"greengpu/internal/workload"
)

// Package metrics (see docs/OBSERVABILITY.md). No-ops unless telemetry is
// enabled.
var (
	metricPoints = telemetry.NewCounter(telemetry.MetricSweepPoints,
		"Simulation points evaluated by the batch sweep engine.")
	metricFastPath = telemetry.NewCounter(telemetry.MetricSweepFastPath,
		"Sweep points served by the closed-form batch evaluator.")
	metricFallback = telemetry.NewCounter(telemetry.MetricSweepFallback,
		"Sweep points that fell back to a full per-point simulation.")
	metricBatches = telemetry.NewCounter(telemetry.MetricSweepBatches,
		"Sweep batches evaluated (Engine.Run calls).")
)

// Engine evaluates sweep specs against one set of device configurations
// and calibrated workloads. The zero value is not usable; fill every
// exported field (Jobs, Cache and FaultPlan are optional).
//
// An Engine is safe for concurrent use: the configurations and profiles
// are treated as immutable, and each batch builds its own shared tables.
type Engine struct {
	GPU      gpusim.Config
	CPU      cpusim.Config
	Bus      bus.Config
	Profiles []*workload.Profile

	// Jobs bounds how many points evaluate concurrently; 0 selects one
	// worker per CPU, 1 forces sequential execution. Results are
	// byte-identical for every value.
	Jobs int

	// Cache, when non-nil, memoizes eligible points under exactly the
	// runcache keys the per-point studies use, so sweeps and studies
	// share hits.
	Cache *runcache.Cache

	// FaultPlan, when non-nil, is the ambient chaos plan: points whose
	// configuration carries no plan of their own inject this one,
	// mirroring experiments.Env.
	FaultPlan *faultinject.Plan
}

// PointResult pairs a point with its run result.
type PointResult struct {
	Point
	Result *core.Result
	// Fast reports whether the closed-form batch evaluator produced the
	// result (false: full simulation, possibly via the run cache).
	Fast bool
}

// Expand resolves a spec into its ordered point list: workloads outermost,
// then the core ladder, then the memory ladder (draws replace the ladder).
// The order is part of the engine's determinism contract — results are
// returned in exactly this order at any Jobs value.
func (e *Engine) Expand(spec Spec) ([]Point, error) {
	r, err := e.resolve(&spec)
	if err != nil {
		return nil, err
	}
	return r.points(&spec), nil
}

// resolvedSpec is a validated spec resolved against the engine's devices.
type resolvedSpec struct {
	names       []string // "all" expanded; every name is a known profile
	cores, mems []int    // device ladder indices; nil for a draw spec
	cpu         int      // CPU P-state; the peak when the spec says -1
}

// resolve validates the spec and resolves it against the engine: the
// workload selection and, for a ladder spec, the core and memory ladders
// and the CPU P-state. Expand and PredictSweetSpots share it.
func (e *Engine) resolve(spec *Spec) (resolvedSpec, error) {
	if err := spec.Validate(); err != nil {
		return resolvedSpec{}, err
	}
	r := resolvedSpec{names: e.workloadNames(spec.Workloads)}
	for _, n := range r.names {
		if _, err := workload.ByName(e.Profiles, n); err != nil {
			return resolvedSpec{}, err
		}
	}
	if spec.Draws > 0 {
		return r, nil
	}
	var err error
	if r.cores, err = resolveLadder(spec.CoreLevels, len(e.GPU.CoreLevels), "core"); err != nil {
		return resolvedSpec{}, err
	}
	if r.mems, err = resolveLadder(spec.MemLevels, len(e.GPU.MemLevels), "mem"); err != nil {
		return resolvedSpec{}, err
	}
	r.cpu = spec.CPULevel
	if r.cpu == -1 {
		r.cpu = len(e.CPU.PStates) - 1
	}
	if r.cpu >= len(e.CPU.PStates) {
		return resolvedSpec{}, fmt.Errorf("sweep: CPU P-state %d out of range [0,%d)", r.cpu, len(e.CPU.PStates))
	}
	return r, nil
}

// points lists the resolved spec's points in Expand order.
func (r *resolvedSpec) points(spec *Spec) []Point {
	if spec.Draws > 0 {
		pts := make([]Point, 0, len(r.names)*spec.Draws)
		for _, n := range r.names {
			for d := 0; d < spec.Draws; d++ {
				pts = append(pts, Point{Workload: n, Draw: d, Core: -1, Mem: -1, CPU: -1})
			}
		}
		return pts
	}
	pts := make([]Point, 0, len(r.names)*len(r.cores)*len(r.mems))
	for _, n := range r.names {
		for _, c := range r.cores {
			for _, m := range r.mems {
				pts = append(pts, Point{Workload: n, Draw: -1, Core: c, Mem: m, CPU: r.cpu})
			}
		}
	}
	return pts
}

// workloadNames expands an empty or "all" workload selection to every
// profile the engine knows; any other selection is returned as is.
func (e *Engine) workloadNames(sel []string) []string {
	if len(sel) > 0 && !(len(sel) == 1 && sel[0] == "all") {
		return sel
	}
	names := make([]string, len(e.Profiles))
	for i, p := range e.Profiles {
		names[i] = p.Name
	}
	return names
}

// resolveLadder checks explicit indices against the device ladder, or
// materializes the full ladder when none were given.
func resolveLadder(sel []int, n int, domain string) ([]int, error) {
	if sel == nil {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out, nil
	}
	for _, l := range sel {
		if l >= n {
			return nil, fmt.Errorf("sweep: %s level %d out of range [0,%d)", domain, l, n)
		}
	}
	return sel, nil
}

// baseConfig builds the batch's shared framework configuration — the
// exact shape the per-point studies use (core.DefaultConfig plus
// Iterations), so eligible points share their run-cache keys. The ambient
// chaos plan is applied when each point is admitted, not here.
func baseConfig(spec *Spec) core.Config {
	cfg := core.DefaultConfig(spec.Mode)
	cfg.Iterations = spec.Iterations
	return cfg
}

// specialize pins a ladder point's initial levels, or installs a draw
// point's per-draw fault plan (which wins over the ambient one). lv is
// caller-provided storage for the levels, so the hot path's copy can live
// on its evaluator's stack.
func specialize(cfg *core.Config, spec *Spec, pt Point, lv *core.Levels) {
	if pt.Draw >= 0 {
		plan := faultinject.Default(parallel.TaskSeed(spec.Seed, pt.Draw))
		cfg.FaultPlan = &plan
	} else {
		*lv = core.Levels{Core: pt.Core, Mem: pt.Mem, CPU: pt.CPU}
		cfg.InitialLevels = lv
	}
}

// Batch is one batch's shared precomputation — the validated device level
// tables plus the per-workload phase columns — detached from any particular
// spec so external callers (the experiments suite, the fleet engine, the
// daemon) can evaluate ad-hoc configurations through the same evaluator
// Engine.Run uses. A Batch is immutable after construction and safe for
// concurrent use.
type Batch struct {
	e   *Engine
	gt  *gpusim.Tables
	ct  *cpusim.Tables
	wts map[string]*workloadTables
}

// deviceTables validates the bus and builds both devices' frequency-level
// tables — the spec-independent half of a batch's shared precomputation.
func (e *Engine) deviceTables() (*gpusim.Tables, *cpusim.Tables, error) {
	if err := e.Bus.Validate(); err != nil {
		return nil, nil, err
	}
	gt, err := gpusim.BuildTables(e.GPU)
	if err != nil {
		return nil, nil, err
	}
	ct, err := cpusim.BuildTables(e.CPU)
	if err != nil {
		return nil, nil, err
	}
	return gt, ct, nil
}

// NewBatch validates the engine's device configurations and precomputes
// the shared tables for the named workloads (every profile the engine
// knows when none, or "all", are named).
func (e *Engine) NewBatch(names ...string) (*Batch, error) {
	b, err := e.newBatch(e.workloadNames(names))
	if err != nil {
		return nil, err
	}
	return &b, nil
}

// newBatch is NewBatch by value, so Engine.Run's batch can stay on its
// stack.
func (e *Engine) newBatch(names []string) (Batch, error) {
	gt, ct, err := e.deviceTables()
	if err != nil {
		return Batch{}, err
	}
	wts := make(map[string]*workloadTables, len(names))
	for _, n := range names {
		if _, ok := wts[n]; ok {
			continue
		}
		prof, err := workload.ByName(e.Profiles, n)
		if err != nil {
			return Batch{}, err
		}
		wts[n] = newWorkloadTables(prof, gt, &e.Bus)
	}
	return Batch{e: e, gt: gt, ct: ct, wts: wts}, nil
}

// Eval evaluates the named workload under one explicit configuration
// through the batch's evaluator (see eval). The bool reports whether the
// closed-form evaluator produced the result.
func (b *Batch) Eval(name string, cfg core.Config) (*core.Result, bool, error) {
	wt, ok := b.wts[name]
	if !ok {
		return nil, false, fmt.Errorf("sweep: workload %q not in batch", name)
	}
	return b.eval(wt, &cfg)
}

// Key returns the run-cache fingerprint Eval would use for the named
// workload under cfg, or false when the configuration is invalid or not
// cacheable. External dedup layers group by this key so their groups
// collapse exactly when the cache would collapse them.
func (b *Batch) Key(name string, cfg core.Config) (runcache.Key, bool) {
	wt, ok := b.wts[name]
	if !ok || b.e.admit(&cfg) != nil || !runcache.Cacheable(&cfg) {
		return runcache.Key{}, false
	}
	return runcache.KeyOf(&b.e.GPU, &b.e.CPU, &b.e.Bus, wt.prof, &cfg, ""), true
}

// admit readies cfg for evaluation: a configuration without a fault plan
// of its own inherits the engine's ambient plan, and the result is
// validated. It is the only place the ambient plan is applied.
func (e *Engine) admit(cfg *core.Config) error {
	if cfg.FaultPlan == nil && e.FaultPlan != nil {
		cfg.FaultPlan = e.FaultPlan
	}
	return cfg.Validate()
}

// eval is the one evaluator: every point the experiments suite, Engine.Run,
// the predicted search, the fleet engine and the daemon evaluate goes
// through it. For one workload and configuration it applies the ambient
// fault plan and validates (admit), then computes the point through the
// run cache (runcache.Cache.Memo) — closed form when the configuration is
// expressible, a full simulation on a fresh machine when not — counting it
// on the fast or fallback metric. The bool reports whether the closed form
// was chosen.
//
// Value receivers keep a stack-constructed batch out of the heap when
// closures capture it.
func (b Batch) eval(wt *workloadTables, cfg *core.Config) (*core.Result, bool, error) {
	e := b.e
	if err := e.admit(cfg); err != nil {
		return nil, false, err
	}
	fast := fastEligible(cfg)
	metricPoints.Inc()
	if fast {
		metricFastPath.Inc()
	} else {
		metricFallback.Inc()
	}
	v, err := e.Cache.Memo(&e.GPU, &e.CPU, &e.Bus, wt.prof, cfg, "", func() (runcache.Value, error) {
		var r *core.Result
		var err error
		if fast {
			r, err = e.fastRun(wt, b.gt, b.ct, cfg)
		} else {
			r, err = core.Run(testbed.NewFrom(e.GPU, e.CPU, e.Bus), wt.prof, *cfg)
		}
		return runcache.Value{Result: r}, err
	})
	if err != nil {
		return nil, false, err
	}
	return v.Result, fast, nil
}

// Run expands and evaluates the spec, returning results in Expand order.
// It is RunContext under a background context.
func (e *Engine) Run(spec Spec) ([]PointResult, error) {
	return e.RunContext(context.Background(), spec)
}

// RunContext is Run with request-scoped cancellation: when ctx is
// canceled, points that have not started are skipped, points already
// running complete (so an attached run cache never holds partial
// entries), and the error is ctx.Err(). The daemon routes client
// disconnects through this path.
func (e *Engine) RunContext(ctx context.Context, spec Spec) ([]PointResult, error) {
	r, err := e.resolve(&spec)
	if err != nil {
		return nil, err
	}
	pts := r.points(&spec)
	// A value batch, captured by value in the map closure: same allocation
	// profile as capturing the tables individually.
	b, err := e.newBatch(r.names)
	if err != nil {
		return nil, err
	}
	base := baseConfig(&spec)
	metricBatches.Inc()
	return parallel.Map(ctx, pts,
		func(_ context.Context, _ int, pt Point) (PointResult, error) {
			return b.evalPoint(b.wts[pt.Workload], &spec, &base, pt)
		}, parallel.Workers(e.Jobs))
}

// evalPoint evaluates one spec point against an explicit workload table —
// explicit so the predicted search can build its tables lazily per
// workload instead of batching them in the map.
func (b Batch) evalPoint(wt *workloadTables, spec *Spec, base *core.Config, pt Point) (PointResult, error) {
	cfg := *base
	var lv core.Levels
	specialize(&cfg, spec, pt, &lv)
	r, fast, err := b.eval(wt, &cfg)
	return PointResult{Point: pt, Result: r, Fast: fast}, err
}

// fastEligible reports whether the closed-form evaluator expresses the
// configuration exactly: the baseline mode's event sequence with no
// dynamic control, no fault injection, and no code-valued fields
// (runcache.Cacheable). Everything else falls back to a full simulation.
func fastEligible(cfg *core.Config) bool {
	return cfg.Mode == core.Baseline &&
		(cfg.StaticRatio == nil || *cfg.StaticRatio == 0) &&
		(cfg.FaultPlan == nil || cfg.FaultPlan.Zero()) &&
		runcache.Cacheable(cfg)
}

// workloadTables is the per-workload shared precomputation of a batch:
// the host→device bus time and, per kernel phase, the per-domain busy
// times tabulated against each ladder (the separable halves of the phase
// timing model). Points that differ in one knob index the other domain's
// unchanged column — the incremental-recompute mechanism.
type workloadTables struct {
	prof    *workload.Profile
	busTime time.Duration // host→device transfer service time
	gamma   float64
	phases  []phaseTables
}

type phaseTables struct {
	stall float64
	tc    []time.Duration // core busy time per core level
	tm    []time.Duration // memory busy time per memory level
}

// newWorkloadTables precomputes the profile's batch tables, with exactly
// the arithmetic (and operation order) the live path uses in
// Profile.GPUKernel, Bus.TransferTime and GPU.startSegment.
func newWorkloadTables(prof *workload.Profile, gt *gpusim.Tables, b *bus.Config) *workloadTables {
	const gpuUnits = (1 - 0) * workload.UnitsPerIteration // baseline: r = 0
	xfer := prof.TransferBytes(gpuUnits)
	wt := &workloadTables{
		prof:    prof,
		busTime: sim.AddTime(b.Latency, b.Bandwidth.TransferTime(xfer)),
		gamma:   gt.Gamma(),
		phases:  make([]phaseTables, len(prof.Phases)),
	}
	nc, nm := len(gt.CoreDenom), len(gt.MemDenom)
	// Every phase's columns share one allocation.
	cols := make([]time.Duration, len(prof.Phases)*(nc+nm))
	for i, ph := range prof.Phases {
		u := gpuUnits * ph.Fraction
		ops := ph.OpsPerUnit * u
		bytes := ph.BytesPerUnit * u
		col := cols[i*(nc+nm):]
		pt := phaseTables{
			stall: ph.StallPerUnit * u,
			tc:    col[:nc:nc],
			tm:    col[nc : nc+nm : nc+nm],
		}
		for c := 0; c < nc; c++ {
			pt.tc[c] = gt.CoreTime(ops, c)
		}
		for m := 0; m < nm; m++ {
			pt.tm[m] = gt.MemTime(bytes, m)
		}
		wt.phases[i] = pt
	}
	return wt
}

// fastRun replays the baseline event sequence in closed form, with the
// engine's exact accrual arithmetic (same operands, same order, same
// saturation rule), so the Result is byte-identical to core.Run on a fresh
// machine.
//
// Every baseline iteration is identical — same levels, same demands, same
// bus window — so each positive-length phase's duration, power and energy
// are derived once per point. The replay advances the clock window by
// window with the engine's saturating sim.AddTime and accrues each
// window's precomputed energy; a window clipped at sim.MaxTime accrues its
// power over the clipped length instead, as the device does.
func (e *Engine) fastRun(wt *workloadTables, gt *gpusim.Tables, ct *cpusim.Tables, cfg *core.Config) (*core.Result, error) {
	c := len(e.GPU.CoreLevels) - 1
	m := len(e.GPU.MemLevels) - 1
	cpuLvl := len(e.CPU.PStates) - 1
	if l := cfg.InitialLevels; l != nil {
		if l.Core < 0 || l.Core >= len(e.GPU.CoreLevels) ||
			l.Mem < 0 || l.Mem >= len(e.GPU.MemLevels) ||
			l.CPU < 0 || l.CPU >= len(e.CPU.PStates) {
			return nil, fmt.Errorf("core: InitialLevels %+v out of range", *l)
		}
		c, m, cpuLvl = l.Core, l.Mem, l.CPU
	}
	iters := wt.prof.Iterations
	if cfg.Iterations > 0 {
		iters = cfg.Iterations
	}
	if iters < 1 {
		iters = 1 // the framework loop always runs one iteration
	}
	cpuBusy := 0
	if cfg.SpinWait {
		cpuBusy = 1
	}
	cpuP := ct.PowerAt(cpuLvl, cpuBusy)

	// Per-point precompute, pulled from the batch's shared per-domain
	// columns: the host→device transfer window, which the GPU accrues idle
	// when the kernel starts, then one window per positive-length phase.
	// The array keeps testbed-sized profiles on the stack.
	xfer := newWindow(wt.busTime, gt.Power(c, m, 0, 0))
	var buf [16]window
	phases := buf[:0]
	for p := range wt.phases {
		ph := &wt.phases[p]
		tc, tm := ph.tc[c], ph.tm[m]
		t := gpusim.UnifyPhaseTime(tc, tm, ph.stall, wt.gamma)
		if t <= 0 {
			continue // zero-length phase: completes without accrual
		}
		uc := units.Clamp(tc.Seconds()/t.Seconds(), 0, 1)
		um := units.Clamp(tm.Seconds()/t.Seconds(), 0, 1)
		phases = append(phases, newWindow(t, gt.Power(c, m, uc, um)))
	}

	res := newFastResult(wt.prof.Name, cfg.Mode, iters)
	var now time.Duration
	var gpuE, cpuE, spinE units.Energy
	var spinT time.Duration
	for i := 0; i < iters; i++ {
		startGPU, startCPU := gpuE, cpuE
		iterStart := now
		now = xfer.accrue(now, &gpuE)
		for p := range phases {
			now = phases[p].accrue(now, &gpuE)
		}
		// The CPU side has no work (r = 0): it accrues once per
		// iteration over the whole wall time, spinning one core when
		// SpinWait models the synchronous CUDA wait.
		iterWall := now - iterStart
		if iterWall > 0 {
			cpuEIter := cpuP.Over(iterWall)
			cpuE += cpuEIter
			if cfg.SpinWait {
				spinT += iterWall
				spinE += cpuEIter
			}
		}
		st := &res.Iterations[i]
		st.Index = i
		st.TG = iterWall
		st.WallTime = iterWall
		st.CoreLevel = c
		st.MemLevel = m
		st.CPULevel = cpuLvl
		st.EnergyGPU = gpuE - startGPU
		st.EnergyCPU = cpuE - startCPU
		st.Energy = st.EnergyGPU + st.EnergyCPU
	}
	res.TotalTime = now
	res.EnergyGPU = gpuE
	res.EnergyCPU = cpuE
	res.Energy = res.EnergyGPU + res.EnergyCPU
	res.SpinTime = spinT
	res.SpinEnergy = spinE
	return res, nil
}

// window is one GPU accrual window at the point's levels: its length, the
// device power over it, and the energy of the whole window.
type window struct {
	dt     time.Duration
	power  units.Power
	energy units.Energy
}

func newWindow(dt time.Duration, p units.Power) window {
	return window{dt: dt, power: p, energy: p.Over(dt)}
}

// accrue advances the clock past the window with the engine's saturation
// rule, adding the window's energy to e — the power over the clipped
// length when the clock saturated — and returns the new clock.
func (w *window) accrue(now time.Duration, e *units.Energy) time.Duration {
	next := sim.AddTime(now, w.dt)
	switch dt := next - now; {
	case dt <= 0:
	case dt == w.dt:
		*e += w.energy
	default:
		*e += w.power.Over(dt)
	}
	return next
}

// resultBuf backs a result and its iteration stats with one allocation.
type resultBuf struct {
	res   core.Result
	stats [4]core.IterationStats
}

// newFastResult allocates a result whose Iterations slice shares the
// result's allocation for runs short enough (the common case).
func newFastResult(name string, mode core.Mode, iters int) *core.Result {
	buf := &resultBuf{}
	buf.res.Workload = name
	buf.res.Mode = mode
	if iters <= len(buf.stats) {
		buf.res.Iterations = buf.stats[:iters:iters]
	} else {
		buf.res.Iterations = make([]core.IterationStats, iters)
	}
	return &buf.res
}

// Table renders results as the suite's standard trace table: one row per
// point with its levels, wall time and energy split.
func Table(e *Engine, results []PointResult) *trace.Table {
	t := trace.NewTable("Sweep points",
		"workload", "draw", "core_mhz", "mem_mhz", "cpu_mhz",
		"exec_s", "energy_j", "energy_gpu_j", "energy_cpu_j")
	for _, pr := range results {
		coreMHz, memMHz, cpuMHz := "", "", ""
		if pr.Draw < 0 {
			coreMHz = fmt.Sprintf("%.0f", e.GPU.CoreLevels[pr.Core].MHz())
			memMHz = fmt.Sprintf("%.0f", e.GPU.MemLevels[pr.Mem].MHz())
			cpuMHz = fmt.Sprintf("%.0f", e.CPU.PStates[pr.CPU].Frequency.MHz())
		}
		r := pr.Result
		t.AddRowf(pr.Workload, pr.Draw, coreMHz, memMHz, cpuMHz,
			r.TotalTime.Seconds(), r.Energy.Joules(),
			r.EnergyGPU.Joules(), r.EnergyCPU.Joules())
	}
	return t
}
