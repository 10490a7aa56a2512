// Package kernels provides real Go implementations of the divisible
// computations behind five of the GreenGPU evaluation workloads: kmeans,
// hotspot, bfs, srad and pathfinder. (The other Table II workloads exist
// only as simulated profiles in internal/workload.)
//
// These are not simulator profiles — they compute actual results. Their
// role in this repository is to demonstrate the workload-division tier on
// genuine computation: every kernel exposes the iteration-and-items
// structure the paper's division algorithm needs (§IV: "an iteration is the
// execution of a fixed amount of work... the reduction point in kmeans,
// the barrier step in hotspot"), so the hetero executor can split each
// iteration's items between two worker pools of different speeds and
// rebalance the split from measured execution times.
//
// The contract mirrors the paper's implementation sketch (§VI): kernels are
// parameterized by the data range they process, ranges are disjoint and may
// run concurrently, and partial results merge at the iteration barrier.
package kernels

import "fmt"

// Kernel is a real, splittable computation.
type Kernel interface {
	// Name identifies the kernel.
	Name() string
	// Items returns the number of work items in the current iteration.
	// It may change between iterations (e.g. bfs frontiers).
	Items() int
	// Chunk processes items [lo, hi) of the current iteration and
	// returns a partial result for the iteration barrier. Chunks over
	// disjoint ranges may run concurrently.
	Chunk(lo, hi int) any
	// EndIteration merges the partial results and advances to the next
	// iteration. It reports whether more work remains.
	EndIteration(partials []any) bool
}

// RunSerial drives a kernel to completion on a single goroutine, processing
// every iteration as one chunk. It returns the number of iterations run.
// It is the reference executor used by tests and as the baseline in the
// examples.
func RunSerial(k Kernel) int {
	iters := 0
	for {
		n := k.Items()
		var partials []any
		if n > 0 {
			partials = append(partials, k.Chunk(0, n))
		}
		iters++
		if !k.EndIteration(partials) {
			return iters
		}
	}
}

// checkRange panics on malformed chunk ranges — misuse by an executor, not
// a data error.
func checkRange(name string, lo, hi, n int) {
	if lo < 0 || hi > n || lo > hi {
		panic(fmt.Sprintf("kernels: %s: chunk [%d,%d) out of range [0,%d)", name, lo, hi, n))
	}
}

// splitMix64 is a tiny deterministic PRNG used to generate reproducible
// synthetic inputs without pulling in math/rand state.
type splitMix64 struct{ state uint64 }

func newSplitMix64(seed uint64) *splitMix64 { return &splitMix64{state: seed} }

func (s *splitMix64) next() uint64 {
	s.state += 0x9e3779b97f4a7c15
	z := s.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// float64 returns a uniform value in [0, 1).
func (s *splitMix64) float64() float64 {
	return float64(s.next()>>11) / (1 << 53)
}

// intn returns a uniform value in [0, n).
func (s *splitMix64) intn(n int) int {
	if n <= 0 {
		panic("kernels: intn on non-positive n")
	}
	return int(s.next() % uint64(n))
}
