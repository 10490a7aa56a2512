package division

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestDefaultConfig(t *testing.T) {
	c := DefaultConfig()
	if c.Step != 0.05 || c.Initial != 0.30 || !c.Safeguard {
		t.Errorf("DefaultConfig = %+v", c)
	}
	if err := c.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
}

func TestConfigValidate(t *testing.T) {
	bads := []Config{
		{Step: 0, Initial: 0.3, Min: 0, Max: 1},
		{Step: 0.6, Initial: 0.3, Min: 0, Max: 1},
		{Step: 0.05, Initial: 0.3, Min: -0.1, Max: 1},
		{Step: 0.05, Initial: 0.3, Min: 0, Max: 1.1},
		{Step: 0.05, Initial: 0.3, Min: 0.5, Max: 0.4},
		{Step: 0.05, Initial: 0.9, Min: 0, Max: 0.5},
		{Step: math.NaN(), Initial: 0.3, Min: 0, Max: 1},
		{Step: 0.05, Initial: 0.3, Min: math.NaN(), Max: 1},
		{Step: 0.05, Initial: 0.3, Min: 0, Max: math.NaN()},
		{Step: 0.05, Initial: math.NaN(), Min: 0, Max: 1},
	}
	for i, c := range bads {
		if err := c.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, c)
		}
	}
}

func TestCPUSlowerShrinksCPUShare(t *testing.T) {
	d := New(DefaultConfig())
	r := d.Observe(10*time.Second, 2*time.Second)
	if math.Abs(r-0.25) > 1e-12 {
		t.Errorf("ratio = %v, want 0.25", r)
	}
	if got := d.History()[0].Action; got != ActionDecrease {
		t.Errorf("action = %v, want cpu-", got)
	}
}

func TestGPUSlowerGrowsCPUShare(t *testing.T) {
	d := New(DefaultConfig())
	r := d.Observe(2*time.Second, 10*time.Second)
	if math.Abs(r-0.35) > 1e-12 {
		t.Errorf("ratio = %v, want 0.35", r)
	}
	if got := d.History()[0].Action; got != ActionIncrease {
		t.Errorf("action = %v, want cpu+", got)
	}
}

func TestEqualTimesHold(t *testing.T) {
	d := New(DefaultConfig())
	r := d.Observe(5*time.Second, 5*time.Second)
	if r != 0.30 {
		t.Errorf("ratio = %v, want unchanged 0.30", r)
	}
	if got := d.History()[0].Action; got != ActionHold {
		t.Errorf("action = %v, want hold", got)
	}
}

func TestClampingAtBounds(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Initial = 0.02
	cfg.Safeguard = false // isolate clamping from oscillation prediction
	d := New(cfg)
	// CPU slower: candidate 0.02-0.05 clamps to Min=0.
	r := d.Observe(10*time.Second, time.Second)
	if r != 0 {
		t.Errorf("ratio = %v, want clamped to 0", r)
	}
	// At exactly Min, further decreases hold.
	r = d.Observe(10*time.Second, time.Second)
	if r != 0 {
		t.Errorf("ratio = %v, want to stay 0", r)
	}
	if got := d.History()[1].Action; got != ActionHold {
		t.Errorf("action at bound = %v, want hold", got)
	}
}

// simulate drives the divider against a linear cost model where the CPU
// processes its share at cpuRate seconds/unit and the GPU at gpuRate,
// returning the trajectory of ratios.
func simulate(d *Divider, cpuRate, gpuRate float64, iters int) []float64 {
	var traj []float64
	for i := 0; i < iters; i++ {
		r := d.Ratio()
		tc := time.Duration(cpuRate * r * float64(time.Second))
		tg := time.Duration(gpuRate * (1 - r) * float64(time.Second))
		traj = append(traj, d.Observe(tc, tg))
	}
	return traj
}

func TestConvergenceToBalancePoint(t *testing.T) {
	// GPU 4x faster than CPU: balance at r where r·4 = (1-r)·1 -> r = 0.2
	// (the paper's kmeans case, which converges to 20/80).
	d := New(DefaultConfig())
	traj := simulate(d, 4, 1, 20)
	final := traj[len(traj)-1]
	if math.Abs(final-0.20) > 1e-9 {
		t.Errorf("converged to %v, want 0.20", final)
	}
	if !d.Converged(5) {
		t.Error("divider did not report convergence")
	}
}

func TestConvergenceEqualSpeeds(t *testing.T) {
	// Equal speeds: balance at 0.5 (the paper's hotspot case).
	d := New(DefaultConfig())
	traj := simulate(d, 1, 1, 20)
	final := traj[len(traj)-1]
	if math.Abs(final-0.50) > 1e-9 {
		t.Errorf("converged to %v, want 0.50", final)
	}
}

func TestConvergenceFromAnyStart(t *testing.T) {
	// §VII-B: the algorithm converges regardless of the initial ratio.
	for _, init := range []float64{0.0, 0.1, 0.5, 0.75, 1.0} {
		cfg := DefaultConfig()
		cfg.Initial = init
		d := New(cfg)
		traj := simulate(d, 1, 1, 40)
		final := traj[len(traj)-1]
		if math.Abs(final-0.50) > 0.051 {
			t.Errorf("start %v converged to %v, want ~0.50", init, final)
		}
	}
}

func TestSafeguardStopsOscillation(t *testing.T) {
	// Optimal division at 12.5% (the paper's example): with a 5% grid the
	// raw heuristic would flip between 0.10 and 0.15 forever.
	cfg := DefaultConfig()
	cfg.Initial = 0.10
	d := New(cfg)
	// CPU rate 7, GPU rate 1: balance r* solves 7r = (1-r) -> r* = 0.125.
	traj := simulate(d, 7, 1, 15)
	// After settling, the ratio must be constant (no flip-flop).
	last5 := traj[len(traj)-5:]
	for _, r := range last5 {
		if r != last5[0] {
			t.Errorf("oscillation persisted: %v", traj)
			break
		}
	}
	// It must have engaged the safeguard at least once.
	saw := false
	for _, obs := range d.History() {
		if obs.Action == ActionHoldSafeguard {
			saw = true
		}
	}
	if !saw {
		t.Error("safeguard never engaged")
	}
	// And settled on one of the two grid neighbours of 0.125.
	final := traj[len(traj)-1]
	if math.Abs(final-0.10) > 1e-9 && math.Abs(final-0.15) > 1e-9 {
		t.Errorf("settled at %v, want 0.10 or 0.15", final)
	}
}

func TestWithoutSafeguardOscillates(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Initial = 0.10
	cfg.Safeguard = false
	d := New(cfg)
	traj := simulate(d, 7, 1, 20)
	// The tail should alternate between 0.10 and 0.15.
	flips := 0
	for i := len(traj) - 6; i < len(traj)-1; i++ {
		if traj[i] != traj[i+1] {
			flips++
		}
	}
	if flips < 3 {
		t.Errorf("expected sustained oscillation without safeguard, trajectory tail %v", traj[len(traj)-6:])
	}
}

func TestSafeguardAllowsMovesFromEmptySides(t *testing.T) {
	// r = 0: no CPU time to scale from; the safeguard must not block the
	// first move onto the CPU.
	cfg := DefaultConfig()
	cfg.Initial = 0
	d := New(cfg)
	r := d.Observe(0, 10*time.Second)
	if math.Abs(r-0.05) > 1e-12 {
		t.Errorf("ratio = %v, want 0.05", r)
	}
	// r = 1: symmetric.
	cfg.Initial = 1
	d = New(cfg)
	r = d.Observe(10*time.Second, 0)
	if math.Abs(r-0.95) > 1e-12 {
		t.Errorf("ratio = %v, want 0.95", r)
	}
}

func TestNegativeTimesPanic(t *testing.T) {
	d := New(DefaultConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	d.Observe(-time.Second, time.Second)
}

func TestHistoryRecording(t *testing.T) {
	d := New(DefaultConfig())
	d.Observe(4*time.Second, 2*time.Second)
	d.Observe(3*time.Second, 3*time.Second)
	h := d.History()
	if len(h) != 2 {
		t.Fatalf("history length = %d", len(h))
	}
	if h[0].Iteration != 0 || h[0].R != 0.30 || h[0].TC != 4*time.Second {
		t.Errorf("h[0] = %+v", h[0])
	}
	if h[1].Iteration != 1 || h[1].Action != ActionHold {
		t.Errorf("h[1] = %+v", h[1])
	}
	if d.Iterations() != 2 {
		t.Errorf("Iterations = %d", d.Iterations())
	}
}

func TestConvergedRequiresEnoughHistory(t *testing.T) {
	d := New(DefaultConfig())
	if d.Converged(1) {
		t.Error("Converged with no history")
	}
	d.Observe(time.Second, time.Second)
	if !d.Converged(1) {
		t.Error("hold not recognized as converged")
	}
	if d.Converged(0) {
		t.Error("Converged(0) should be false")
	}
}

func TestActionString(t *testing.T) {
	cases := map[Action]string{
		ActionHold:          "hold",
		ActionIncrease:      "cpu+",
		ActionDecrease:      "cpu-",
		ActionHoldSafeguard: "hold(safeguard)",
		Action(99):          "Action(99)",
	}
	for a, want := range cases {
		if got := a.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(a), got, want)
		}
	}
}

// Property: the ratio always stays within [Min, Max] and moves by at most
// Step per iteration.
func TestRatioInvariantsProperty(t *testing.T) {
	f := func(times []uint16) bool {
		d := New(DefaultConfig())
		prev := d.Ratio()
		for i := 0; i+1 < len(times); i += 2 {
			tc := time.Duration(times[i]) * time.Millisecond
			tg := time.Duration(times[i+1]) * time.Millisecond
			r := d.Observe(tc, tg)
			if r < 0 || r > 1 {
				return false
			}
			if math.Abs(r-prev) > 0.05+1e-12 {
				return false
			}
			prev = r
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: against any linear cost model the divider converges to within
// one step of the balance point and stays there.
func TestLinearModelConvergenceProperty(t *testing.T) {
	f := func(cpuRateSeed, gpuRateSeed uint8) bool {
		cpuRate := 0.5 + float64(cpuRateSeed)/16 // [0.5, 16.4]
		gpuRate := 0.5 + float64(gpuRateSeed)/16
		d := New(DefaultConfig())
		for i := 0; i < 60; i++ {
			r := d.Ratio()
			tc := time.Duration(cpuRate * r * float64(time.Second))
			tg := time.Duration(gpuRate * (1 - r) * float64(time.Second))
			d.Observe(tc, tg)
		}
		balance := gpuRate / (cpuRate + gpuRate)
		return math.Abs(d.Ratio()-balance) <= 0.05+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}
