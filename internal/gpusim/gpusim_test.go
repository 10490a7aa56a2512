package gpusim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"greengpu/internal/sim"
	"greengpu/internal/units"
)

// testConfig returns a deliberately simple device: 1 SP at IPC 1, 1 byte per
// memory cycle, so ops map 1:1 to core cycles and bytes 1:1 to memory cycles.
func testConfig(gamma float64) Config {
	return Config{
		Name:             "test-gpu",
		SMs:              1,
		SPsPerSM:         1,
		IPC:              1,
		CoreLevels:       []units.Frequency{100 * units.Megahertz, 200 * units.Megahertz},
		MemLevels:        []units.Frequency{100 * units.Megahertz, 200 * units.Megahertz},
		BytesPerMemCycle: 1,
		OverlapGamma:     gamma,
		Power: PowerParams{
			Board:         10,
			CoreClockTree: 4,
			CoreDynamic:   20,
			MemClockTree:  2,
			MemDynamic:    10,
		},
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig(0)
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero SMs", func(c *Config) { c.SMs = 0 }},
		{"zero SPs", func(c *Config) { c.SPsPerSM = 0 }},
		{"zero IPC", func(c *Config) { c.IPC = 0 }},
		{"no core levels", func(c *Config) { c.CoreLevels = nil }},
		{"no mem levels", func(c *Config) { c.MemLevels = nil }},
		{"zero bytes/cycle", func(c *Config) { c.BytesPerMemCycle = 0 }},
		{"gamma > 1", func(c *Config) { c.OverlapGamma = 1.5 }},
		{"gamma < 0", func(c *Config) { c.OverlapGamma = -0.1 }},
		{"descending ladder", func(c *Config) {
			c.CoreLevels = []units.Frequency{200 * units.Megahertz, 100 * units.Megahertz}
		}},
		{"duplicate level", func(c *Config) {
			c.MemLevels = []units.Frequency{100 * units.Megahertz, 100 * units.Megahertz}
		}},
		{"negative level", func(c *Config) {
			c.CoreLevels = []units.Frequency{-1}
		}},
	}
	for _, m := range mutations {
		c := testConfig(0)
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config", m.name)
		}
	}
}

func TestBootsAtLowestLevels(t *testing.T) {
	g := New(sim.New(), testConfig(0))
	if g.CoreLevel() != 0 || g.MemLevel() != 0 {
		t.Errorf("boot levels = (%d,%d), want (0,0)", g.CoreLevel(), g.MemLevel())
	}
	if g.CoreFrequency() != 100*units.Megahertz {
		t.Errorf("boot core frequency = %v", g.CoreFrequency())
	}
}

func TestComputeOnlyKernelTiming(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	g.SetLevels(1, 1)                                            // 200 MHz core
	k := &Kernel{Name: "compute", Phases: []Phase{{Ops: 200e6}}} // 1s at 200MHz
	g.Submit(k)
	e.Run()
	if got, want := k.ExecTime(), time.Second; absDur(got-want) > time.Microsecond {
		t.Errorf("ExecTime = %v, want %v", got, want)
	}
}

func TestMemoryOnlyKernelTiming(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	// 100 MHz memory, 1 byte/cycle -> 100 MB/s.
	k := &Kernel{Name: "mem", Phases: []Phase{{Bytes: 50e6}}}
	g.Submit(k)
	e.Run()
	if got, want := k.ExecTime(), 500*time.Millisecond; absDur(got-want) > time.Microsecond {
		t.Errorf("ExecTime = %v, want %v", got, want)
	}
}

func TestMixedPhaseOverlap(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0.5))
	// At level 0: Tc = 1s (100e6 ops @100MHz), Tm = 0.5s -> T = 1 + 0.5*0.5 = 1.25s
	k := &Kernel{Name: "mixed", Phases: []Phase{{Ops: 100e6, Bytes: 50e6}}}
	g.Submit(k)
	e.Run()
	if got, want := k.ExecTime(), 1250*time.Millisecond; absDur(got-want) > time.Microsecond {
		t.Errorf("ExecTime = %v, want %v", got, want)
	}
}

func TestUtilizationDuringPhase(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	// Tc = 1s, Tm = 0.5s, gamma=0 -> T = 1s, u_core = 1, u_mem = 0.5.
	g.Submit(&Kernel{Name: "u", Phases: []Phase{{Ops: 100e6, Bytes: 50e6}}})
	e.RunUntil(100 * time.Millisecond)
	uc, um := g.Utilization()
	if math.Abs(uc-1) > 1e-9 || math.Abs(um-0.5) > 1e-9 {
		t.Errorf("utilization = (%v,%v), want (1,0.5)", uc, um)
	}
	e.Run()
	uc, um = g.Utilization()
	if uc != 0 || um != 0 {
		t.Errorf("idle utilization = (%v,%v), want (0,0)", uc, um)
	}
}

func TestCountersWindow(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	before := g.Counters()
	g.Submit(&Kernel{Name: "w", Phases: []Phase{{Ops: 100e6, Bytes: 25e6}}}) // T=1s, uc=1, um=0.25
	e.RunUntil(2 * time.Second)                                              // busy 1s + idle 1s
	w := g.Counters().Since(before)
	if w.Duration != 2*time.Second {
		t.Fatalf("window duration = %v", w.Duration)
	}
	if math.Abs(w.CoreUtil-0.5) > 1e-6 {
		t.Errorf("window core util = %v, want 0.5", w.CoreUtil)
	}
	if math.Abs(w.MemUtil-0.125) > 1e-6 {
		t.Errorf("window mem util = %v, want 0.125", w.MemUtil)
	}
}

func TestEnergyAccounting(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	g.SetLevels(1, 1)
	// Pure compute 1s at level 1: uc=1, um=0.
	// P = 10 + 1*(4 + 20*1) + 1*(2 + 0) = 36 W busy.
	g.Submit(&Kernel{Name: "e", Phases: []Phase{{Ops: 200e6}}})
	e.Run()
	busy := g.Counters().Energy
	if math.Abs(busy.Joules()-36) > 1e-6 {
		t.Errorf("busy energy = %v J, want 36", busy.Joules())
	}
	// One idle second at peak levels: P = 10 + 4 + 2 = 16 W.
	e.RunUntil(e.Now() + time.Second)
	idle := g.Counters().Energy - busy
	if math.Abs(idle.Joules()-16) > 1e-6 {
		t.Errorf("idle energy = %v J, want 16", idle.Joules())
	}
}

func TestIdlePowerScalesWithFrequency(t *testing.T) {
	g := New(sim.New(), testConfig(0))
	low := g.InstantPower()
	g.SetLevels(1, 1)
	high := g.InstantPower()
	if low >= high {
		t.Errorf("idle power at lowest clocks (%v) should be below peak clocks (%v)", low, high)
	}
	// Exact: low = 10 + 0.5*4 + 0.5*2 = 13, high = 16.
	if math.Abs(low.Watts()-13) > 1e-9 || math.Abs(high.Watts()-16) > 1e-9 {
		t.Errorf("idle power = %v/%v, want 13/16", low, high)
	}
}

func TestFrequencyChangeMidPhase(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	g.SetCoreLevel(1) // 200 MHz
	// 400e6 ops -> 2s at 200 MHz.
	k := &Kernel{Name: "dvfs", Phases: []Phase{{Ops: 400e6}}}
	g.Submit(k)
	e.RunUntil(time.Second) // half done
	g.SetCoreLevel(0)       // 100 MHz: remaining 200e6 ops take 2s more
	e.Run()
	if got, want := k.ExecTime(), 3*time.Second; absDur(got-want) > time.Microsecond {
		t.Errorf("ExecTime = %v, want %v", got, want)
	}
}

func TestFrequencyChangeNoOp(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	k := &Kernel{Name: "noop", Phases: []Phase{{Ops: 100e6}}}
	g.Submit(k)
	e.RunUntil(300 * time.Millisecond)
	g.SetLevels(0, 0) // same levels: must not re-time
	e.Run()
	if got, want := k.ExecTime(), time.Second; absDur(got-want) > time.Microsecond {
		t.Errorf("ExecTime = %v, want %v", got, want)
	}
}

func TestMemFrequencyChangeMidMemPhase(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	g.SetMemLevel(1)                                         // 200 MB/s
	k := &Kernel{Name: "m", Phases: []Phase{{Bytes: 400e6}}} // 2s
	g.Submit(k)
	e.RunUntil(500 * time.Millisecond) // 100e6 bytes done
	g.SetMemLevel(0)                   // 100 MB/s: remaining 300e6 -> 3s
	e.Run()
	if got, want := k.ExecTime(), 3500*time.Millisecond; absDur(got-want) > time.Microsecond {
		t.Errorf("ExecTime = %v, want %v", got, want)
	}
}

func TestKernelQueueing(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	k1 := &Kernel{Name: "k1", Phases: []Phase{{Ops: 100e6}}} // 1s
	k2 := &Kernel{Name: "k2", Phases: []Phase{{Ops: 100e6}}} // 1s
	g.Submit(k1)
	g.Submit(k2)
	if g.QueueLen() != 1 {
		t.Fatalf("QueueLen = %d, want 1", g.QueueLen())
	}
	e.Run()
	if k1.QueueTime() != 0 {
		t.Errorf("k1 queue time = %v, want 0", k1.QueueTime())
	}
	if absDur(k2.QueueTime()-time.Second) > time.Microsecond {
		t.Errorf("k2 queue time = %v, want 1s", k2.QueueTime())
	}
	if absDur(k2.ExecTime()-time.Second) > time.Microsecond {
		t.Errorf("k2 exec time = %v, want 1s", k2.ExecTime())
	}
	if got := g.Counters().KernelsCompleted; got != 2 {
		t.Errorf("KernelsCompleted = %d, want 2", got)
	}
}

func TestOnCompleteCallback(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	var doneAt time.Duration
	g.Submit(&Kernel{
		Name:       "cb",
		Phases:     []Phase{{Ops: 100e6}},
		OnComplete: func() { doneAt = e.Now() },
	})
	e.Run()
	if doneAt != time.Second {
		t.Errorf("OnComplete at %v, want 1s", doneAt)
	}
}

func TestChainedSubmissionFromCallback(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	iterations := 0
	var launch func()
	launch = func() {
		if iterations >= 3 {
			return
		}
		iterations++
		g.Submit(&Kernel{Name: "iter", Phases: []Phase{{Ops: 100e6}}, OnComplete: launch})
	}
	launch()
	e.Run()
	if iterations != 3 {
		t.Errorf("iterations = %d, want 3", iterations)
	}
	if e.Now() != 3*time.Second {
		t.Errorf("finished at %v, want 3s", e.Now())
	}
}

func TestEmptyKernelCompletesImmediately(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	done := false
	g.Submit(&Kernel{Name: "empty", OnComplete: func() { done = true }})
	if !done {
		t.Error("empty kernel did not complete synchronously")
	}
	if g.Busy() {
		t.Error("device still busy after empty kernel")
	}
}

func TestZeroDemandPhaseSkipped(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	k := &Kernel{Name: "zero", Phases: []Phase{{}, {Ops: 100e6}, {}}}
	g.Submit(k)
	e.Run()
	if absDur(k.ExecTime()-time.Second) > time.Microsecond {
		t.Errorf("ExecTime = %v, want 1s", k.ExecTime())
	}
}

func TestMultiPhaseKernel(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	k := &Kernel{Name: "mp", Phases: []Phase{
		{Ops: 100e6},  // 1s, core-bound
		{Bytes: 50e6}, // 0.5s, mem-bound
	}}
	before := g.Counters()
	g.Submit(k)
	e.Run()
	if absDur(k.ExecTime()-1500*time.Millisecond) > time.Microsecond {
		t.Errorf("ExecTime = %v, want 1.5s", k.ExecTime())
	}
	w := g.Counters().Since(before)
	// core busy 1s of 1.5s, mem busy 0.5s of 1.5s.
	if math.Abs(w.CoreUtil-2.0/3) > 1e-6 || math.Abs(w.MemUtil-1.0/3) > 1e-6 {
		t.Errorf("utilizations = (%v,%v), want (0.667,0.333)", w.CoreUtil, w.MemUtil)
	}
}

func TestSubmitNilPanics(t *testing.T) {
	g := New(sim.New(), testConfig(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Submit(nil)
}

func TestNegativeDemandPanics(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Submit(&Kernel{Name: "neg", Phases: []Phase{{Ops: -1}}})
}

func TestSetLevelsOutOfRangePanics(t *testing.T) {
	g := New(sim.New(), testConfig(0))
	for _, fn := range []func(){
		func() { g.SetCoreLevel(-1) },
		func() { g.SetCoreLevel(2) },
		func() { g.SetMemLevel(-1) },
		func() { g.SetMemLevel(2) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic for out-of-range level")
				}
			}()
			fn()
		}()
	}
}

func TestPhaseTimeMatchesExecution(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0.3))
	want := g.PhaseTime(123e6, 77e6, 0, 1, 0)
	g.SetLevels(1, 0)
	k := &Kernel{Name: "pt", Phases: []Phase{{Ops: 123e6, Bytes: 77e6}}}
	g.Submit(k)
	e.Run()
	if absDur(k.ExecTime()-want) > time.Microsecond {
		t.Errorf("ExecTime = %v, PhaseTime predicted %v", k.ExecTime(), want)
	}
}

func TestPeakBandwidth(t *testing.T) {
	g := New(sim.New(), testConfig(0))
	if got := g.PeakBandwidth(); got != units.Bandwidth(100e6) {
		t.Errorf("PeakBandwidth = %v, want 100 MB/s", got)
	}
	g.SetMemLevel(1)
	if got := g.PeakBandwidth(); got != units.Bandwidth(200e6) {
		t.Errorf("PeakBandwidth = %v, want 200 MB/s", got)
	}
}

// Property: observing the device (Counters) at arbitrary times never changes
// kernel completion time.
func TestObservationInvarianceProperty(t *testing.T) {
	f := func(probes []uint16) bool {
		e := sim.New()
		g := New(e, testConfig(0.2))
		k := &Kernel{Name: "p", Phases: []Phase{{Ops: 300e6, Bytes: 100e6}}}
		g.Submit(k)
		base := g.PhaseTime(300e6, 100e6, 0, 0, 0)
		for _, p := range probes {
			at := time.Duration(p) * time.Millisecond
			if at <= e.Now() {
				continue
			}
			if at >= base {
				break
			}
			e.RunUntil(at)
			g.Counters() // observation must be side-effect free on timing
		}
		e.Run()
		return absDur(k.ExecTime()-base) <= time.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: switching levels and immediately switching back mid-phase leaves
// total work conserved — execution time equals time spent at each rate such
// that fractions sum to 1 (here verified as: never shorter than the
// all-at-high time and never longer than the all-at-low time).
func TestDVFSBoundsProperty(t *testing.T) {
	f := func(switchMs uint16, lvl uint8) bool {
		e := sim.New()
		g := New(e, testConfig(0))
		g.SetLevels(1, 1)
		k := &Kernel{Name: "b", Phases: []Phase{{Ops: 400e6, Bytes: 100e6}}}
		g.Submit(k)
		fast := g.PhaseTime(400e6, 100e6, 0, 1, 1)
		slow := g.PhaseTime(400e6, 100e6, 0, 0, 0)
		at := time.Duration(switchMs) * time.Millisecond
		if at > 0 && at < fast {
			e.RunUntil(at)
			g.SetLevels(int(lvl)%2, int(lvl/2)%2)
		}
		e.Run()
		return k.ExecTime() >= fast-time.Microsecond && k.ExecTime() <= slow+time.Microsecond
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// Property: energy integral is additive across observation windows.
func TestEnergyAdditivityProperty(t *testing.T) {
	f := func(aMs, bMs uint16) bool {
		e := sim.New()
		g := New(e, testConfig(0.1))
		g.Submit(&Kernel{Name: "e", Phases: []Phase{{Ops: 200e6, Bytes: 150e6}}})
		t1 := time.Duration(aMs) * time.Millisecond
		t2 := t1 + time.Duration(bMs)*time.Millisecond
		c0 := g.Counters()
		e.RunUntil(t1)
		c1 := g.Counters()
		e.RunUntil(t2)
		c2 := g.Counters()
		sum := (c1.Energy - c0.Energy) + (c2.Energy - c1.Energy)
		return math.Abs(float64(sum-(c2.Energy-c0.Energy))) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

func TestStallOnlyPhase(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	k := &Kernel{Name: "stall", Phases: []Phase{{Stall: 2}}}
	g.Submit(k)
	e.RunUntil(time.Second)
	uc, um := g.Utilization()
	if uc != 0 || um != 0 {
		t.Errorf("stall utilization = (%v,%v), want (0,0)", uc, um)
	}
	e.Run()
	if absDur(k.ExecTime()-2*time.Second) > time.Microsecond {
		t.Errorf("ExecTime = %v, want 2s", k.ExecTime())
	}
}

// TestUnifyPhaseTimeSaturates: a phase whose overlap term would carry the
// duration past the clock's range saturates at sim.MaxTime instead of
// wrapping negative (which the device would treat as a zero-length phase).
func TestUnifyPhaseTimeSaturates(t *testing.T) {
	for _, tc := range []struct {
		tc, tm time.Duration
		stall  float64
	}{
		{sim.MaxTime, sim.MaxTime, 0},
		{sim.MaxTime / 2, sim.MaxTime, 0},
		{time.Hour, time.Hour, 1e12},
	} {
		if got := UnifyPhaseTime(tc.tc, tc.tm, tc.stall, 0.9); got != sim.MaxTime {
			t.Errorf("UnifyPhaseTime(%v, %v, %v) = %v, want sim.MaxTime", tc.tc, tc.tm, tc.stall, got)
		}
	}
	if got, want := UnifyPhaseTime(2*time.Second, time.Second, 0, 0.5), 2500*time.Millisecond; got != want {
		t.Errorf("UnifyPhaseTime(2s, 1s) = %v, want %v", got, want)
	}
}

func TestStallIsFrequencyIndependent(t *testing.T) {
	run := func(level int) time.Duration {
		e := sim.New()
		g := New(e, testConfig(0))
		g.SetLevels(level, level)
		k := &Kernel{Name: "s", Phases: []Phase{{Stall: 1.5}}}
		g.Submit(k)
		e.Run()
		return k.ExecTime()
	}
	if a, b := run(0), run(1); absDur(a-b) > time.Microsecond {
		t.Errorf("stall time varies with frequency: %v vs %v", a, b)
	}
}

func TestStallDilutesUtilization(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	// Tc = 1s, Tm = 0.5s, stall 1.5s -> T = max(1, 0.5, 1.5) = 1.5s:
	// uc = 2/3, um = 1/3.
	g.Submit(&Kernel{Name: "d", Phases: []Phase{{Ops: 100e6, Bytes: 50e6, Stall: 1.5}}})
	e.RunUntil(100 * time.Millisecond)
	uc, um := g.Utilization()
	if math.Abs(uc-2.0/3) > 1e-9 || math.Abs(um-1.0/3) > 1e-9 {
		t.Errorf("utilization = (%v,%v), want (0.667,0.333)", uc, um)
	}
	e.Run()
}

func TestStallBelowCriticalPathIsFree(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	// Stall 0.5s < Tc = 1s: the latency floor hides under the compute
	// critical path and execution time is just Tc.
	k := &Kernel{Name: "hidden", Phases: []Phase{{Ops: 100e6, Bytes: 25e6, Stall: 0.5}}}
	g.Submit(k)
	e.Run()
	if absDur(k.ExecTime()-time.Second) > time.Microsecond {
		t.Errorf("ExecTime = %v, want 1s", k.ExecTime())
	}
}

func TestThrottlingUnderUtilizedDomainIsFree(t *testing.T) {
	// The paper's observation 1: while a domain's busy time is below the
	// critical path, throttling it changes energy but not execution time.
	run := func(memLevel int) time.Duration {
		e := sim.New()
		g := New(e, testConfig(0))
		g.SetLevels(1, memLevel)
		// Tc = 1s at level 1; Tm = 0.25s at mem level 1, 0.5s at level 0.
		k := &Kernel{Name: "free", Phases: []Phase{{Ops: 200e6, Bytes: 50e6}}}
		g.Submit(k)
		e.Run()
		return k.ExecTime()
	}
	if a, b := run(1), run(0); absDur(a-b) > time.Microsecond {
		t.Errorf("throttling sub-critical memory changed exec time: %v vs %v", a, b)
	}
}

func TestThrottlingPastKneeHurts(t *testing.T) {
	// Observation 2: once the throttled domain's busy time crosses the
	// critical path, execution time grows.
	run := func(coreLevel int) time.Duration {
		e := sim.New()
		g := New(e, testConfig(0))
		g.SetLevels(coreLevel, 1)
		// At core level 1: Tc = 1s; at level 0: Tc = 2s. Tm = 0.75s.
		k := &Kernel{Name: "knee", Phases: []Phase{{Ops: 200e6, Bytes: 150e6}}}
		g.Submit(k)
		e.Run()
		return k.ExecTime()
	}
	fast, slow := run(1), run(0)
	if slow <= fast {
		t.Errorf("throttling the bottleneck domain did not slow execution: %v vs %v", fast, slow)
	}
	if absDur(slow-2*time.Second) > time.Microsecond {
		t.Errorf("slow = %v, want 2s", slow)
	}
}

func TestPhaseUtilizationPrediction(t *testing.T) {
	g := New(sim.New(), testConfig(0))
	uc, um := g.PhaseUtilization(100e6, 50e6, 1.5, 0, 0)
	if math.Abs(uc-2.0/3) > 1e-9 || math.Abs(um-1.0/3) > 1e-9 {
		t.Errorf("PhaseUtilization = (%v,%v), want (0.667,0.333)", uc, um)
	}
	uc, um = g.PhaseUtilization(0, 0, 0, 0, 0)
	if uc != 0 || um != 0 {
		t.Errorf("empty PhaseUtilization = (%v,%v)", uc, um)
	}
}

func TestNegativeStallPanics(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	g.Submit(&Kernel{Name: "neg", Phases: []Phase{{Stall: -1}}})
}

func TestActiveSMsScaling(t *testing.T) {
	cfg := testConfig(0)
	cfg.SMs = 4
	run := func(sms int) time.Duration {
		e := sim.New()
		g := New(e, cfg)
		g.SetActiveSMs(sms)
		k := &Kernel{Name: "s", Phases: []Phase{{Ops: 400e6}}}
		g.Submit(k)
		e.Run()
		return k.ExecTime()
	}
	full, half := run(4), run(2)
	if absDur(half-2*full) > time.Microsecond {
		t.Errorf("halving SMs should double compute time: %v vs %v", full, half)
	}
}

func TestActiveSMsGatingPower(t *testing.T) {
	cfg := testConfig(0)
	cfg.SMs = 4
	cfg.Power.CoreGatable = 0.5
	e := sim.New()
	g := New(e, cfg)
	// Idle at lowest clocks: core term = 0.5·4 W · scale.
	full := g.InstantPower()
	g.SetActiveSMs(1)
	gated := g.InstantPower()
	if gated >= full {
		t.Errorf("gating saved no power: %v -> %v", full, gated)
	}
	// Exact: scale = 0.5 + 0.5·(1/4) = 0.625; core idle term 0.5·4 = 2 W
	// becomes 1.25 W: saving 0.75 W.
	if math.Abs(float64(full-gated)-0.75) > 1e-9 {
		t.Errorf("gating saved %v W, want 0.75", float64(full-gated))
	}
}

func TestActiveSMsNoGatableNoSaving(t *testing.T) {
	cfg := testConfig(0)
	cfg.SMs = 4 // CoreGatable defaults to 0, like the G80
	g := New(sim.New(), cfg)
	before := g.InstantPower()
	g.SetActiveSMs(1)
	if g.InstantPower() != before {
		t.Error("gating changed power on a non-gatable device")
	}
}

func TestActiveSMsMidPhaseRetiming(t *testing.T) {
	cfg := testConfig(0)
	cfg.SMs = 2
	e := sim.New()
	g := New(e, cfg)
	// 2 SMs at 100 MHz: 200e6 ops -> 1s.
	k := &Kernel{Name: "mid", Phases: []Phase{{Ops: 200e6}}}
	g.Submit(k)
	e.RunUntil(500 * time.Millisecond) // half done
	g.SetActiveSMs(1)                  // remaining 100e6 ops at 1 SM -> 1s
	e.Run()
	if absDur(k.ExecTime()-1500*time.Millisecond) > time.Microsecond {
		t.Errorf("ExecTime = %v, want 1.5s", k.ExecTime())
	}
}

func TestActiveSMsOutOfRangePanics(t *testing.T) {
	g := New(sim.New(), testConfig(0))
	for _, n := range []int{0, 2} {
		n := n
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("SetActiveSMs(%d) did not panic", n)
				}
			}()
			g.SetActiveSMs(n)
		}()
	}
}

func TestCoreGatableValidation(t *testing.T) {
	cfg := testConfig(0)
	cfg.Power.CoreGatable = 1.5
	if err := cfg.Validate(); err == nil {
		t.Error("CoreGatable > 1 accepted")
	}
}

// Resubmitting one kernel reuses the device's memoized event label, so the
// resubmission path allocates nothing.
func TestResubmittedKernelAllocatesNothing(t *testing.T) {
	e := sim.New()
	g := New(e, testConfig(0.15))
	k := &Kernel{Name: "reused", Phases: []Phase{{Ops: 1e9, Bytes: 2e8}, {Ops: 5e8, Stall: 0.1}}}
	if allocs := testing.AllocsPerRun(100, func() {
		g.Submit(k)
		e.Run()
	}); allocs != 0 {
		t.Errorf("resubmitting one kernel allocates %.0f per run", allocs)
	}
}
