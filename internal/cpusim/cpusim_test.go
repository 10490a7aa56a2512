package cpusim

import (
	"math"
	"testing"
	"testing/quick"
	"time"

	"greengpu/internal/sim"
	"greengpu/internal/units"
)

// testConfig: 2 cores, IPC 1, two P-states at 1 GHz/1.0 V and 2 GHz/1.25 V.
func testConfig() Config {
	return Config{
		Name:  "test-cpu",
		Cores: 2,
		IPC:   1,
		PStates: []PState{
			{Frequency: 1 * units.Gigahertz, Voltage: 1.0},
			{Frequency: 2 * units.Gigahertz, Voltage: 1.25},
		},
		Power: PowerParams{
			Platform:      40,
			StaticPerCore: 5,
			DynPerCore:    25,
		},
	}
}

func TestConfigValidate(t *testing.T) {
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	mutations := []struct {
		name string
		mut  func(*Config)
	}{
		{"zero cores", func(c *Config) { c.Cores = 0 }},
		{"zero IPC", func(c *Config) { c.IPC = 0 }},
		{"no p-states", func(c *Config) { c.PStates = nil }},
		{"zero freq", func(c *Config) { c.PStates[0].Frequency = 0 }},
		{"zero volt", func(c *Config) { c.PStates[1].Voltage = 0 }},
		{"descending", func(c *Config) {
			c.PStates = []PState{
				{Frequency: 2 * units.Gigahertz, Voltage: 1.25},
				{Frequency: 1 * units.Gigahertz, Voltage: 1.0},
			}
		}},
	}
	for _, m := range mutations {
		c := testConfig()
		m.mut(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: Validate accepted bad config", m.name)
		}
	}
}

func TestBootsAtLowestPState(t *testing.T) {
	c := New(sim.New(), testConfig())
	if c.Level() != 0 {
		t.Errorf("boot level = %d, want 0", c.Level())
	}
	if c.Frequency() != 1*units.Gigahertz {
		t.Errorf("boot frequency = %v", c.Frequency())
	}
	if c.Voltage() != 1.0 {
		t.Errorf("boot voltage = %v", c.Voltage())
	}
}

func TestJobTiming(t *testing.T) {
	e := sim.New()
	c := New(e, testConfig())
	c.SetLevel(1) // 2 GHz
	// 4e9 ops on 2 cores at 2 GHz, IPC 1 -> 1s.
	j := &Job{Name: "j", Ops: 4e9, Threads: 2}
	c.Run(j)
	e.Run()
	if got := j.ExecTime(); absDur(got-time.Second) > time.Microsecond {
		t.Errorf("ExecTime = %v, want 1s", got)
	}
}

func TestSingleThreadJob(t *testing.T) {
	e := sim.New()
	c := New(e, testConfig())
	j := &Job{Name: "st", Ops: 1e9, Threads: 1} // 1 core @1GHz -> 1s
	c.Run(j)
	if u := c.Utilization(); u != 0.5 {
		t.Errorf("utilization = %v, want 0.5", u)
	}
	e.Run()
	if absDur(j.ExecTime()-time.Second) > time.Microsecond {
		t.Errorf("ExecTime = %v, want 1s", j.ExecTime())
	}
}

func TestThreadsClampedToCores(t *testing.T) {
	e := sim.New()
	c := New(e, testConfig())
	j := &Job{Name: "wide", Ops: 2e9, Threads: 16} // clamped to 2 cores -> 1s
	c.Run(j)
	e.Run()
	if absDur(j.ExecTime()-time.Second) > time.Microsecond {
		t.Errorf("ExecTime = %v, want 1s", j.ExecTime())
	}
	// Threads <= 0 also means "all cores".
	j2 := &Job{Name: "auto", Ops: 2e9}
	c.Run(j2)
	e.Run()
	if absDur(j2.ExecTime()-time.Second) > time.Microsecond {
		t.Errorf("auto-thread ExecTime = %v, want 1s", j2.ExecTime())
	}
}

func TestPStateChangeMidJob(t *testing.T) {
	e := sim.New()
	c := New(e, testConfig())
	c.SetLevel(1)                                 // 2 GHz
	j := &Job{Name: "dvfs", Ops: 8e9, Threads: 2} // 2s at 2 GHz
	c.Run(j)
	e.RunUntil(time.Second) // half done (4e9 ops remain)
	c.SetLevel(0)           // 1 GHz -> remaining takes 2s
	e.Run()
	if absDur(j.ExecTime()-3*time.Second) > time.Microsecond {
		t.Errorf("ExecTime = %v, want 3s", j.ExecTime())
	}
}

func TestRunWhileBusyPanics(t *testing.T) {
	e := sim.New()
	c := New(e, testConfig())
	c.Run(&Job{Name: "a", Ops: 1e9})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Run(&Job{Name: "b", Ops: 1e9})
}

func TestRunNilPanics(t *testing.T) {
	c := New(sim.New(), testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Run(nil)
}

func TestNegativeOpsPanics(t *testing.T) {
	c := New(sim.New(), testConfig())
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	c.Run(&Job{Name: "neg", Ops: -5})
}

func TestSetLevelOutOfRangePanics(t *testing.T) {
	c := New(sim.New(), testConfig())
	for _, lvl := range []int{-1, 2} {
		lvl := lvl
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("expected panic for level %d", lvl)
				}
			}()
			c.SetLevel(lvl)
		}()
	}
}

func TestZeroOpsJobCompletesImmediately(t *testing.T) {
	e := sim.New()
	c := New(e, testConfig())
	done := false
	c.Run(&Job{Name: "zero", Ops: 0, OnComplete: func() { done = true }})
	if !done {
		t.Error("zero-ops job did not complete synchronously")
	}
	if c.Busy() {
		t.Error("CPU still busy")
	}
}

func TestSpinAccounting(t *testing.T) {
	e := sim.New()
	c := New(e, testConfig())
	c.SetSpin(1)
	if u := c.Utilization(); u != 0.5 {
		t.Errorf("spin utilization = %v, want 0.5", u)
	}
	if got := c.MaxCoreUtilization(); got != 1 {
		t.Errorf("MaxCoreUtilization = %v, want 1", got)
	}
	e.RunUntil(2 * time.Second)
	c.SetSpin(0)
	e.RunUntil(3 * time.Second)
	cnt := c.Counters()
	if cnt.SpinTime != 2*time.Second {
		t.Errorf("SpinTime = %v, want 2s", cnt.SpinTime)
	}
	// Spin power at level 0: 40 + 2*5*(1/1.25) + 1*25*(0.5)*(0.8)^2 = 40+8+8 = 56 W.
	wantSpinE := 2.0 * 56
	if math.Abs(cnt.SpinEnergy.Joules()-wantSpinE) > 1e-6 {
		t.Errorf("SpinEnergy = %v J, want %v", cnt.SpinEnergy.Joules(), wantSpinE)
	}
	if got := c.MaxCoreUtilization(); got != 0 {
		t.Errorf("idle MaxCoreUtilization = %v, want 0", got)
	}
}

func TestSpinClamped(t *testing.T) {
	c := New(sim.New(), testConfig())
	c.SetSpin(100)
	if c.SpinCores() != 2 {
		t.Errorf("SpinCores = %d, want 2", c.SpinCores())
	}
	c.SetSpin(-4)
	if c.SpinCores() != 0 {
		t.Errorf("SpinCores = %d, want 0", c.SpinCores())
	}
}

func TestSpinDoesNotCountDuringJob(t *testing.T) {
	e := sim.New()
	c := New(e, testConfig())
	c.SetSpin(1)
	c.Run(&Job{Name: "j", Ops: 1e9, Threads: 1}) // 1s alongside spin
	e.Run()
	cnt := c.Counters()
	// Spin energy only accrues when spinning without a job.
	if cnt.SpinTime != 0 {
		t.Errorf("SpinTime = %v, want 0 while job runs", cnt.SpinTime)
	}
}

func TestPowerModel(t *testing.T) {
	e := sim.New()
	c := New(e, testConfig())
	// Idle at level 0: 40 + 2*5*(1/1.25) + 0 = 48 W.
	if p := c.InstantPower(); math.Abs(p.Watts()-48) > 1e-9 {
		t.Errorf("idle power = %v, want 48 W", p)
	}
	c.SetLevel(1)
	// Idle at level 1: 40 + 2*5 = 50 W.
	if p := c.InstantPower(); math.Abs(p.Watts()-50) > 1e-9 {
		t.Errorf("idle power = %v, want 50 W", p)
	}
	c.Run(&Job{Name: "p", Ops: 4e9, Threads: 2})
	// Busy both cores at top state: 40 + 10 + 2*25 = 100 W.
	if p := c.InstantPower(); math.Abs(p.Watts()-100) > 1e-9 {
		t.Errorf("busy power = %v, want 100 W", p)
	}
	e.Run()
}

func TestIdlePowerAt(t *testing.T) {
	c := New(sim.New(), testConfig())
	if p := c.IdlePowerAt(0); math.Abs(p.Watts()-48) > 1e-9 {
		t.Errorf("IdlePowerAt(0) = %v, want 48 W", p)
	}
	if p := c.IdlePowerAt(1); math.Abs(p.Watts()-50) > 1e-9 {
		t.Errorf("IdlePowerAt(1) = %v, want 50 W", p)
	}
	defer func() {
		if recover() == nil {
			t.Error("expected panic for out-of-range level")
		}
	}()
	c.IdlePowerAt(5)
}

func TestEnergyIntegration(t *testing.T) {
	e := sim.New()
	c := New(e, testConfig())
	c.SetLevel(1)
	before := c.Counters()
	c.Run(&Job{Name: "e", Ops: 4e9, Threads: 2}) // 1s at 100 W
	e.Run()
	w := c.Counters().Since(before)
	if math.Abs(w.Energy.Joules()-100) > 1e-6 {
		t.Errorf("busy energy = %v J, want 100", w.Energy.Joules())
	}
	if math.Abs(w.Util-1) > 1e-9 {
		t.Errorf("window util = %v, want 1", w.Util)
	}
}

func TestJobTimePrediction(t *testing.T) {
	c := New(sim.New(), testConfig())
	if got := c.JobTime(2e9, 2, 0); absDur(got-time.Second) > time.Microsecond {
		t.Errorf("JobTime = %v, want 1s", got)
	}
	if got := c.JobTime(2e9, 1, 1); absDur(got-time.Second) > time.Microsecond {
		t.Errorf("JobTime 1-thread @2GHz = %v, want 1s", got)
	}
	if got := c.JobTime(0, 2, 0); got != 0 {
		t.Errorf("JobTime(0 ops) = %v, want 0", got)
	}
}

func TestOnCompleteAndCounters(t *testing.T) {
	e := sim.New()
	c := New(e, testConfig())
	n := 0
	c.Run(&Job{Name: "cb", Ops: 1e9, OnComplete: func() { n++ }})
	e.Run()
	if n != 1 {
		t.Errorf("OnComplete fired %d times", n)
	}
	if got := c.Counters().JobsCompleted; got != 1 {
		t.Errorf("JobsCompleted = %d", got)
	}
}

// Property: job execution time scales inversely with frequency ratio.
func TestFrequencyScalingProperty(t *testing.T) {
	f := func(opsM uint16) bool {
		if opsM == 0 {
			return true
		}
		ops := float64(opsM) * 1e6
		run := func(level int) time.Duration {
			e := sim.New()
			c := New(e, testConfig())
			c.SetLevel(level)
			j := &Job{Name: "s", Ops: ops, Threads: 2}
			c.Run(j)
			e.Run()
			return j.ExecTime()
		}
		slow, fast := run(0), run(1)
		ratio := float64(slow) / float64(fast)
		return math.Abs(ratio-2) < 0.001
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: energy accounting is invariant to observation points.
func TestEnergyObservationInvariance(t *testing.T) {
	f := func(probeMs uint16) bool {
		total := func(probe bool) units.Energy {
			e := sim.New()
			c := New(e, testConfig())
			c.Run(&Job{Name: "x", Ops: 3e9, Threads: 2})
			if probe {
				at := time.Duration(probeMs) * time.Millisecond
				if at > 0 && at < 1500*time.Millisecond {
					e.RunUntil(at)
					c.Counters()
				}
			}
			e.Run()
			e.RunUntil(2 * time.Second)
			return c.Counters().Energy
		}
		a, b := total(true), total(false)
		return math.Abs(float64(a-b)) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// Rerunning one job reuses the device's memoized event label, so the rerun
// path allocates nothing.
func TestRerunJobAllocatesNothing(t *testing.T) {
	e := sim.New()
	c := New(e, testConfig())
	j := &Job{Name: "reused", Ops: 1e9}
	if allocs := testing.AllocsPerRun(100, func() {
		c.Run(j)
		e.Run()
	}); allocs != 0 {
		t.Errorf("rerunning one job allocates %.0f per run", allocs)
	}
}
