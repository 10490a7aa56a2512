package bridge

import (
	"math"
	"testing"
	"time"

	"greengpu/internal/core"
	"greengpu/internal/hetero"
	"greengpu/internal/kernels"
	"greengpu/internal/testbed"
	"greengpu/internal/workload"
)

// testPools are model pools with a 4:1 per-item cost: every time they
// report is exact, so characterization results are deterministic.
func testPools() (cpu, acc *hetero.Pool) {
	return hetero.ModelPool("cpu", 1, 800*time.Microsecond),
		hetero.ModelPool("acc", 1, 200*time.Microsecond)
}

func hotspotFactory() func() kernels.Kernel {
	return func() kernels.Kernel { return kernels.NewHotspot(48, 48, 50, 7) }
}

func TestCharacterizeMeasuresSlowdown(t *testing.T) {
	cpu, acc := testPools()
	m, err := Characterize(hotspotFactory(), cpu, acc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// 48 rows per iteration at 200µs and 800µs per row.
	if m.Slowdown != 4 {
		t.Errorf("measured slowdown %v, want 4", m.Slowdown)
	}
	if m.AccIteration != 9600*time.Microsecond || m.CPUIteration != 38400*time.Microsecond {
		t.Errorf("iteration times acc %v, cpu %v, want 9.6ms and 38.4ms", m.AccIteration, m.CPUIteration)
	}
	if err := m.Spec.Validate(); err != nil {
		t.Errorf("derived spec invalid: %v", err)
	}
	if m.Spec.Name != "hotspot" {
		t.Errorf("spec name = %q", m.Spec.Name)
	}
}

func TestCharacterizedSpecRunsOnTestbed(t *testing.T) {
	// The end-to-end loop: measure a real kernel, calibrate the derived
	// spec against the simulated testbed, run the division tier there,
	// and check the simulated convergence matches the real balance point
	// 1/(1+S).
	cpu, acc := testPools()
	m, err := Characterize(hotspotFactory(), cpu, acc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	profile, err := workload.Calibrate(m.Spec, testbed.GeForce8800GTX(), testbed.PhenomIIX2())
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(core.Division)
	cfg.Iterations = 15
	res, err := core.Run(testbed.New(), profile, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Slowdown 4 puts the balance point at 1/(1+4) = 0.2.
	if res.FinalRatio != 0.2 {
		t.Errorf("simulated division converged to %v, want the measured balance point 0.2", res.FinalRatio)
	}

	// And the real executor must converge to the same point.
	x := hetero.New(hotspotFactory()(), cpu, acc, hetero.Config{})
	rep := x.Run()
	if rep.FinalRatio != 0.2 {
		t.Errorf("real executor converged to %v, want 0.2 like the simulation", rep.FinalRatio)
	}
}

func TestCharacterizeDefaults(t *testing.T) {
	cpu, acc := testPools()
	m, err := Characterize(hotspotFactory(), cpu, acc, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s := m.Spec
	if s.Iterations != 10 || s.TransferMB != 100 || s.RepartitionMB != 100 {
		t.Errorf("defaults not applied: %+v", s)
	}
	ph := s.Phases[0]
	if ph.CoreUtil != 0.60 || ph.MemUtil != 0.35 {
		t.Errorf("default utilizations = (%v, %v)", ph.CoreUtil, ph.MemUtil)
	}
	// TimeScale 1000: the 9.6ms measured iteration lasts 9.6s simulated.
	if math.Abs(s.IterationSeconds-9.6) > 1e-9 {
		t.Errorf("IterationSeconds = %v, want 9.6", s.IterationSeconds)
	}
}

func TestCharacterizeCustomOptions(t *testing.T) {
	cpu, acc := testPools()
	m, err := Characterize(hotspotFactory(), cpu, acc, Options{
		Name:              "my-stencil",
		CoreUtil:          0.8,
		MemUtil:           0.5,
		SpecIterations:    7,
		MeasureIterations: 2,
		TimeScale:         500,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Spec.Name != "my-stencil" || m.Spec.Iterations != 7 {
		t.Errorf("options not applied: %+v", m.Spec)
	}
	if m.Spec.Phases[0].CoreUtil != 0.8 {
		t.Errorf("utilization target not applied")
	}
}

func TestCharacterizeErrors(t *testing.T) {
	cpu, acc := testPools()
	if _, err := Characterize(nil, cpu, acc, Options{}); err == nil {
		t.Error("nil factory accepted")
	}
	if _, err := Characterize(hotspotFactory(), nil, acc, Options{}); err == nil {
		t.Error("nil pool accepted")
	}
	if _, err := Characterize(func() kernels.Kernel { return nil }, cpu, acc, Options{}); err == nil {
		t.Error("nil kernel accepted")
	}
	bad := &hetero.Pool{Name: "bad", Workers: 0}
	if _, err := Characterize(hotspotFactory(), bad, acc, Options{}); err == nil {
		t.Error("invalid pool accepted")
	}
}

func TestCharacterizeInfeasibleUtilization(t *testing.T) {
	cpu, acc := testPools()
	_, err := Characterize(hotspotFactory(), cpu, acc, Options{
		CoreUtil: 0.99, MemUtil: 0.98, // max + γ·min > 1 downstream
	})
	if err != nil {
		t.Fatal(err) // the spec itself is valid; calibration rejects it
	}
	// Calibration against the default device must reject it.
	m, _ := Characterize(hotspotFactory(), cpu, acc, Options{CoreUtil: 0.99, MemUtil: 0.98})
	if _, err := workload.Calibrate(m.Spec, testbed.GeForce8800GTX(), testbed.PhenomIIX2()); err == nil {
		t.Error("infeasible utilization calibrated")
	}
}
