package hetero

import (
	"fmt"
	"time"

	"greengpu/internal/kernels"
	"greengpu/internal/units"
)

// MultiExecutor generalizes tier 1 to k devices — the paper's
// implementation structure ("one pthread for one GPU, one pthread for one
// core", §VI) points straight at multi-accelerator nodes. Each iteration's
// items are split across all pools with shares proportional to their
// measured processing rates (items per second, exponentially smoothed), so
// all sides finish together; this is the k-way water-filling analogue of
// the two-sided execution-time comparison.
type MultiExecutor struct {
	kernel kernels.Kernel
	pools  []*Pool
	cfg    MultiConfig

	shares []float64
	rates  []float64 // items/second EWMA, 0 = unknown
}

// PoolPower is one pool's power envelope for energy estimation.
type PoolPower struct {
	Busy units.Power
	Idle units.Power
}

// MultiConfig parameterizes a multi-pool run.
type MultiConfig struct {
	// Smoothing is the EWMA factor for rate estimates in (0,1]: 1 uses
	// only the latest iteration. Default 0.5.
	Smoothing float64
	// MaxIterations bounds the number of barriers; 0 runs to completion.
	MaxIterations int
	// Energy, when non-empty, enables energy estimation; it must have
	// one entry per pool.
	Energy []PoolPower
	// OnIteration, if non-nil, observes every completed iteration.
	OnIteration func(MultiIterationStat)
}

// MultiIterationStat describes one k-way iteration.
type MultiIterationStat struct {
	Index  int
	Items  int
	Shares []float64
	Counts []int
	Times  []time.Duration
	Wall   time.Duration
}

// MultiReport summarizes a multi-pool run.
type MultiReport struct {
	Kernel      string
	Pools       []string
	Iterations  []MultiIterationStat
	FinalShares []float64
	// TotalWall is the sum of the iterations' Wall times.
	TotalWall time.Duration
	// Busy and Wait are per-pool sums; Wait is barrier idle time.
	// Busy[i] + Wait[i] = TotalWall for every pool.
	Busy []time.Duration
	Wait []time.Duration
	// Energy is the modelled total; zero when no model was given.
	Energy units.Energy
}

// Imbalance returns the final iteration's (max−min)/wall time spread —
// the k-way analogue of Report.Balance.
func (r *MultiReport) Imbalance() float64 {
	if len(r.Iterations) == 0 {
		return 0
	}
	last := r.Iterations[len(r.Iterations)-1]
	if last.Wall == 0 {
		return 0
	}
	lo, hi := time.Duration(1<<62), time.Duration(0)
	for i, t := range last.Times {
		if last.Counts[i] == 0 {
			continue
		}
		if t < lo {
			lo = t
		}
		if t > hi {
			hi = t
		}
	}
	if hi == 0 {
		return 0
	}
	return float64(hi-lo) / float64(last.Wall)
}

// NewMulti creates a k-way executor with equal initial shares. It panics
// on a nil kernel, fewer than two pools, or invalid pools/config.
func NewMulti(k kernels.Kernel, pools []*Pool, cfg MultiConfig) *MultiExecutor {
	if k == nil {
		panic("hetero: nil kernel")
	}
	if len(pools) < 2 {
		panic(fmt.Sprintf("hetero: need at least two pools, got %d", len(pools)))
	}
	for _, p := range pools {
		if p == nil {
			panic("hetero: nil pool")
		}
		if err := p.Validate(); err != nil {
			panic(err)
		}
	}
	if cfg.Smoothing == 0 {
		cfg.Smoothing = 0.5
	}
	if !(0 < cfg.Smoothing && cfg.Smoothing <= 1) {
		panic(fmt.Sprintf("hetero: Smoothing = %v, must be in (0,1]", cfg.Smoothing))
	}
	if len(cfg.Energy) != 0 && len(cfg.Energy) != len(pools) {
		panic(fmt.Sprintf("hetero: Energy has %d entries for %d pools", len(cfg.Energy), len(pools)))
	}
	x := &MultiExecutor{
		kernel: k,
		pools:  pools,
		cfg:    cfg,
		shares: make([]float64, len(pools)),
		rates:  make([]float64, len(pools)),
	}
	for i := range x.shares {
		x.shares[i] = 1 / float64(len(pools))
	}
	return x
}

// Shares returns the current share vector.
func (x *MultiExecutor) Shares() []float64 {
	out := make([]float64, len(x.shares))
	copy(out, x.shares)
	return out
}

// split turns the share vector into per-pool item counts summing to n
// (largest-remainder rounding).
func (x *MultiExecutor) split(n int) []int {
	k := len(x.pools)
	counts := make([]int, k)
	rem := make([]float64, k)
	total := 0
	for i, s := range x.shares {
		exact := s * float64(n)
		counts[i] = int(exact)
		rem[i] = exact - float64(counts[i])
		total += counts[i]
	}
	for total < n {
		best := 0
		for i := 1; i < k; i++ {
			if rem[i] > rem[best] {
				best = i
			}
		}
		counts[best]++
		rem[best] = -1
		total++
	}
	return counts
}

// Run executes the kernel to completion (or MaxIterations).
func (x *MultiExecutor) Run() *MultiReport {
	k := len(x.pools)
	rep := &MultiReport{
		Kernel: x.kernel.Name(),
		Busy:   make([]time.Duration, k),
		Wait:   make([]time.Duration, k),
	}
	for _, p := range x.pools {
		rep.Pools = append(rep.Pools, p.Name)
	}
	for iter := 0; x.cfg.MaxIterations <= 0 || iter < x.cfg.MaxIterations; iter++ {
		n := x.kernel.Items()
		counts := x.split(n)
		partials, times, wall := barrier(x.kernel, x.pools, counts)

		stat := MultiIterationStat{
			Index:  iter,
			Items:  n,
			Shares: x.Shares(),
			Counts: counts,
			Times:  times,
			Wall:   wall,
		}
		rep.Iterations = append(rep.Iterations, stat)
		rep.TotalWall += wall
		for i := 0; i < k; i++ {
			rep.Busy[i] += times[i]
			rep.Wait[i] += wall - times[i]
		}
		if x.cfg.OnIteration != nil {
			x.cfg.OnIteration(stat)
		}

		x.updateShares(counts, times)

		if !x.kernel.EndIteration(partials) {
			break
		}
	}
	rep.FinalShares = x.Shares()
	if len(x.cfg.Energy) == len(x.pools) {
		for i, pp := range x.cfg.Energy {
			rep.Energy += pp.Busy.Over(rep.Busy[i]) + pp.Idle.Over(rep.Wait[i])
		}
	}
	return rep
}

// updateShares folds the measured per-pool rates into the EWMA estimates
// and renormalizes shares proportional to rate.
func (x *MultiExecutor) updateShares(counts []int, times []time.Duration) {
	alpha := x.cfg.Smoothing
	for i := range x.pools {
		if counts[i] <= 0 || times[i] <= 0 {
			continue // no fresh measurement for this pool
		}
		rate := float64(counts[i]) / times[i].Seconds()
		if x.rates[i] == 0 {
			x.rates[i] = rate
		} else {
			x.rates[i] = alpha*rate + (1-alpha)*x.rates[i]
		}
	}
	total := 0.0
	for _, r := range x.rates {
		total += r
	}
	if total <= 0 {
		return // nothing measured yet; keep equal shares
	}
	for i := range x.shares {
		if x.rates[i] == 0 {
			// Unmeasured pool: hold a small probe share so it gets a
			// measurement next iteration.
			x.shares[i] = 0.01
			continue
		}
		x.shares[i] = x.rates[i] / total
	}
	// Renormalize (probe shares may have perturbed the sum).
	sum := 0.0
	for _, s := range x.shares {
		sum += s
	}
	for i := range x.shares {
		x.shares[i] /= sum
	}
}
