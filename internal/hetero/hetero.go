// Package hetero executes real kernels (internal/kernels) across worker
// pools of different speeds — a stand-in for the paper's CPU + GPU
// pthread structure (§VI) — and drives GreenGPU's workload-division tier
// from the pools' measured times.
//
// Each iteration's items are split by the current division ratio: the CPU
// pool processes the first r·n items, the accelerator pool the rest,
// concurrently. Both sides' execution times feed division.Divider, which
// rebalances the split for the next iteration exactly as on the paper's
// testbed. MultiExecutor does the same across k pools with a rate EWMA.
// An optional energy model translates busy and idle times into estimated
// energy, so the examples can report the idle-energy reduction the
// division tier exists to deliver.
//
// Timing has one source: Pool.Process reports how long its pool took, and
// both executors run an iteration through the same barrier step. An
// iteration's Wall is the slowest pool's reported time, and each pool's
// barrier wait is Wall minus its own time, so for every pool Busy + Wait
// equals the run's TotalWall, the sum of the iterations' Walls. A pool
// built by ModelPool reports a modelled cost (items × per-item cost)
// instead of measured time, which makes every division decision, and so
// every test on such pools, deterministic.
package hetero

import (
	"fmt"
	"sync"
	"time"

	"greengpu/internal/division"
	"greengpu/internal/kernels"
	"greengpu/internal/units"
)

// Pool is a fixed-size worker pool.
type Pool struct {
	// Name labels the pool in stats ("cpu", "gpu", ...).
	Name string
	// Workers is the number of goroutines used per chunk.
	Workers int
	// ItemDelay, when non-zero, adds an artificial per-item cost. It
	// exists to give the two pools a controlled, machine-independent
	// speed asymmetry in demos.
	ItemDelay time.Duration

	// perItem, when positive, replaces measurement with a cost model:
	// Process sleeps not at all and reports items × perItem.
	perItem time.Duration
}

// ModelPool returns a pool that runs chunks like any other but reports
// items × perItem as its time instead of measuring it, so the runs it
// takes part in are deterministic. It panics on a non-positive perItem.
func ModelPool(name string, workers int, perItem time.Duration) *Pool {
	if perItem <= 0 {
		panic(fmt.Sprintf("hetero: ModelPool %q needs a positive per-item cost, got %v", name, perItem))
	}
	return &Pool{Name: name, Workers: workers, perItem: perItem}
}

// Validate reports the first problem with the pool, if any.
func (p *Pool) Validate() error {
	if p.Workers <= 0 {
		return fmt.Errorf("hetero: pool %q needs at least one worker", p.Name)
	}
	if p.ItemDelay < 0 {
		return fmt.Errorf("hetero: pool %q has negative ItemDelay", p.Name)
	}
	return nil
}

// Process runs items [lo, hi) of the kernel's current iteration on the
// pool and returns the chunks' partial results and the time the pool
// took: measured wall time, or the modelled cost for a ModelPool. Chunks
// over disjoint sub-ranges run concurrently on the pool's workers.
func (p *Pool) Process(k kernels.Kernel, lo, hi int) ([]any, time.Duration) {
	n := hi - lo
	if n <= 0 {
		return nil, 0
	}
	start := time.Now()
	if p.perItem == 0 && p.ItemDelay > 0 {
		time.Sleep(time.Duration(n) * p.ItemDelay)
	}
	workers := min(p.Workers, n)
	partials := make([]any, workers)
	var wg sync.WaitGroup
	per := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		clo := lo + w*per
		chi := min(clo+per, hi)
		if clo >= chi {
			break
		}
		wg.Add(1)
		go func(idx, clo, chi int) {
			defer wg.Done()
			partials[idx] = k.Chunk(clo, chi)
		}(w, clo, chi)
	}
	wg.Wait()
	out := partials[:0]
	for _, p := range partials {
		if p != nil {
			out = append(out, p)
		}
	}
	if p.perItem > 0 {
		return out, time.Duration(n) * p.perItem
	}
	return out, time.Since(start)
}

// barrier runs one iteration: pools[i] processes the next counts[i] items
// of the kernel's current iteration, all pools concurrently. It returns
// the partials in pool order, each pool's time as Process reported it,
// and the iteration's wall time, the slowest pool's time.
func barrier(k kernels.Kernel, pools []*Pool, counts []int) ([]any, []time.Duration, time.Duration) {
	parts := make([][]any, len(pools))
	times := make([]time.Duration, len(pools))
	var wg sync.WaitGroup
	lo := 0
	for i, p := range pools {
		hi := lo + counts[i]
		wg.Add(1)
		go func(lo int) {
			defer wg.Done()
			parts[i], times[i] = p.Process(k, lo, hi)
		}(lo)
		lo = hi
	}
	wg.Wait()
	var partials []any
	var wall time.Duration
	for i := range pools {
		partials = append(partials, parts[i]...)
		wall = max(wall, times[i])
	}
	return partials, times, wall
}

// EnergyModel translates busy/idle time into estimated energy for the
// examples' reporting. Values are device powers at the measurement
// boundaries, as in internal/testbed.
type EnergyModel struct {
	CPUBusy units.Power
	CPUIdle units.Power
	AccBusy units.Power
	AccIdle units.Power
}

// Config parameterizes an executor run.
type Config struct {
	// Division holds tier 1's parameters; zero value uses the defaults.
	Division division.Config
	// MaxIterations bounds the number of barriers; 0 runs the kernel to
	// completion.
	MaxIterations int
	// Energy, when non-nil, enables energy estimation in the report.
	Energy *EnergyModel
	// OnIteration, if non-nil, observes every completed iteration.
	OnIteration func(IterationStat)
}

// IterationStat describes one iteration barrier.
type IterationStat struct {
	Index    int
	Items    int
	CPUItems int
	R        float64
	TCPU     time.Duration
	TAcc     time.Duration
	Wall     time.Duration
}

// Report summarizes an executor run.
type Report struct {
	Kernel     string
	Iterations []IterationStat
	FinalRatio float64
	// TotalWall is the sum of the iterations' Wall times.
	TotalWall time.Duration
	// CPUBusy and AccBusy are the summed per-side execution times;
	// CPUWait and AccWait the summed idle time each side spent waiting
	// for the other at iteration barriers. Busy + Wait = TotalWall on
	// each side.
	CPUBusy, AccBusy time.Duration
	CPUWait, AccWait time.Duration
	// Energy is the modelled total energy; zero when no model was given.
	Energy units.Energy
}

// Balance returns the final iteration's relative imbalance
// |tcpu − tacc| / wall, the quantity the division tier minimizes.
func (r *Report) Balance() float64 {
	if len(r.Iterations) == 0 {
		return 0
	}
	last := r.Iterations[len(r.Iterations)-1]
	if last.Wall == 0 {
		return 0
	}
	d := last.TCPU - last.TAcc
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(last.Wall)
}

// Executor drives one kernel over two pools under dynamic division.
type Executor struct {
	kernel  kernels.Kernel
	cpu     *Pool
	acc     *Pool
	cfg     Config
	divider *division.Divider
}

// New creates an executor. The zero-valued Division config is replaced by
// the paper defaults. It panics on invalid pools or division parameters.
func New(k kernels.Kernel, cpu, acc *Pool, cfg Config) *Executor {
	if k == nil {
		panic("hetero: nil kernel")
	}
	for _, p := range []*Pool{cpu, acc} {
		if p == nil {
			panic("hetero: nil pool")
		}
		if err := p.Validate(); err != nil {
			panic(err)
		}
	}
	if cfg.Division == (division.Config{}) {
		cfg.Division = division.DefaultConfig()
	}
	return &Executor{
		kernel:  k,
		cpu:     cpu,
		acc:     acc,
		cfg:     cfg,
		divider: division.New(cfg.Division),
	}
}

// Ratio returns the current CPU share.
func (x *Executor) Ratio() float64 { return x.divider.Ratio() }

// Run executes the kernel to completion (or MaxIterations) and returns the
// report.
func (x *Executor) Run() *Report {
	rep := &Report{Kernel: x.kernel.Name()}
	pools := []*Pool{x.cpu, x.acc}
	for iter := 0; x.cfg.MaxIterations <= 0 || iter < x.cfg.MaxIterations; iter++ {
		n := x.kernel.Items()
		r := x.divider.Ratio()
		cpuN := min(int(r*float64(n)+0.5), n)
		partials, times, wall := barrier(x.kernel, pools, []int{cpuN, n - cpuN})

		stat := IterationStat{
			Index:    iter,
			Items:    n,
			CPUItems: cpuN,
			R:        r,
			TCPU:     times[0],
			TAcc:     times[1],
			Wall:     wall,
		}
		rep.Iterations = append(rep.Iterations, stat)
		rep.TotalWall += wall
		rep.CPUBusy += stat.TCPU
		rep.AccBusy += stat.TAcc
		rep.CPUWait += wall - stat.TCPU
		rep.AccWait += wall - stat.TAcc
		if x.cfg.OnIteration != nil {
			x.cfg.OnIteration(stat)
		}

		x.divider.Observe(stat.TCPU, stat.TAcc)

		if !x.kernel.EndIteration(partials) {
			break
		}
	}
	rep.FinalRatio = x.divider.Ratio()
	if m := x.cfg.Energy; m != nil {
		rep.Energy = m.CPUBusy.Over(rep.CPUBusy) + m.CPUIdle.Over(rep.CPUWait) +
			m.AccBusy.Over(rep.AccBusy) + m.AccIdle.Over(rep.AccWait)
	}
	return rep
}

// History exposes the divider's decision log.
func (x *Executor) History() []division.Observation { return x.divider.History() }
