package division

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestQilinConfigValidate(t *testing.T) {
	good := DefaultQilinConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("default config rejected: %v", err)
	}
	bads := []QilinConfig{
		{Initial: 0.3, Probe: 0.3, Min: 0, Max: 1},   // probe == initial
		{Initial: 0.3, Probe: 0.5, Min: 0.6, Max: 1}, // initial out of bounds
		{Initial: 0.3, Probe: 1.5, Min: 0, Max: 1},   // probe out of bounds
		{Initial: 0.3, Probe: 0.5, Min: 0.9, Max: 0.1},
		{Initial: 0.3, Probe: 0.5, Min: math.NaN(), Max: 1},
		{Initial: 0.3, Probe: 0.5, Min: 0, Max: math.NaN()},
		{Initial: math.NaN(), Probe: 0.5, Min: 0, Max: 1},
		{Initial: 0.3, Probe: math.NaN(), Min: 0, Max: 1},
	}
	for i, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

// simulateQilin drives the divider against a linear cost model.
func simulateQilin(q *Qilin, cpuRate, gpuRate float64, iters int) []float64 {
	var traj []float64
	for i := 0; i < iters; i++ {
		r := q.Ratio()
		tc := time.Duration(cpuRate * r * float64(time.Second))
		tg := time.Duration(gpuRate * (1 - r) * float64(time.Second))
		traj = append(traj, q.Observe(tc, tg))
	}
	return traj
}

func TestQilinJumpsToBalanceAfterProfiling(t *testing.T) {
	// CPU 4x slower: balance at exactly 0.20. Qilin profiles at 0.30 and
	// 0.50, then must land on 0.20 in one move — faster than the
	// step heuristic and with no 5% grid.
	q := NewQilin(DefaultQilinConfig())
	traj := simulateQilin(q, 4, 1, 5)
	// traj[0] = probe move (0.50), traj[1] = the fitted jump.
	if math.Abs(traj[1]-0.20) > 1e-9 {
		t.Errorf("after profiling jumped to %v, want 0.20", traj[1])
	}
	for i := 2; i < len(traj); i++ {
		if math.Abs(traj[i]-0.20) > 1e-9 {
			t.Errorf("iteration %d drifted to %v", i, traj[i])
		}
	}
}

func TestQilinOffGridOptimum(t *testing.T) {
	// Balance at 1/(1+7) = 0.125 — off the 5% grid that forces the step
	// heuristic to engage its safeguard. Qilin lands on it exactly.
	q := NewQilin(DefaultQilinConfig())
	traj := simulateQilin(q, 7, 1, 5)
	final := traj[len(traj)-1]
	if math.Abs(final-0.125) > 1e-9 {
		t.Errorf("converged to %v, want 0.125", final)
	}
}

func TestQilinClampsToBounds(t *testing.T) {
	cfg := DefaultQilinConfig()
	cfg.Min = 0.25
	cfg.Initial = 0.30
	cfg.Probe = 0.50
	q := NewQilin(cfg)
	// Balance would be 0.1, below Min.
	traj := simulateQilin(q, 9, 1, 5)
	if got := traj[len(traj)-1]; got != 0.25 {
		t.Errorf("ratio %v, want clamped to 0.25", got)
	}
}

func TestQilinNegativeTimesPanic(t *testing.T) {
	q := NewQilin(DefaultQilinConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	q.Observe(-time.Second, time.Second)
}

func TestQilinHistory(t *testing.T) {
	q := NewQilin(DefaultQilinConfig())
	simulateQilin(q, 4, 1, 3)
	h := q.History()
	if len(h) != 3 {
		t.Fatalf("history = %d entries", len(h))
	}
	if h[0].R != 0.30 || h[0].NewR != 0.50 {
		t.Errorf("profiling move = %+v", h[0])
	}
}

func TestQilinHoldsOnDegenerateFit(t *testing.T) {
	// Identical times at both profiled ratios give b_c + b_g <= 0 paths;
	// the divider must hold rather than divide by ~zero.
	q := NewQilin(DefaultQilinConfig())
	q.Observe(time.Second, time.Second)      // at 0.30
	r := q.Observe(time.Second, time.Second) // at 0.50: flat lines, bc=bg=0
	if r != 0.50 {
		t.Errorf("degenerate fit moved ratio to %v", r)
	}
}

func TestFitLine(t *testing.T) {
	a, b, ok := fitLine([]float64{0, 1, 2}, []float64{1, 3, 5})
	if !ok || math.Abs(a-1) > 1e-12 || math.Abs(b-2) > 1e-12 {
		t.Errorf("fit = (%v, %v, %v), want (1, 2, true)", a, b, ok)
	}
	if _, _, ok := fitLine([]float64{2, 2}, []float64{1, 5}); ok {
		t.Error("degenerate abscissae accepted")
	}
	if _, _, ok := fitLine([]float64{1}, []float64{1}); ok {
		t.Error("single point accepted")
	}
}

// Property: against any linear cost model with positive rates, Qilin ends
// within float tolerance of the clamped balance point.
func TestQilinConvergenceProperty(t *testing.T) {
	f := func(cpuSeed, gpuSeed uint8) bool {
		cpuRate := 0.5 + float64(cpuSeed)/16
		gpuRate := 0.5 + float64(gpuSeed)/16
		q := NewQilin(DefaultQilinConfig())
		simulateQilin(q, cpuRate, gpuRate, 6)
		balance := gpuRate / (cpuRate + gpuRate)
		return math.Abs(q.Ratio()-balance) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
