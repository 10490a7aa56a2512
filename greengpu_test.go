package greengpu

import (
	"math"
	"testing"
	"time"

	"greengpu/internal/kernels"
)

// kernelFactoryForFacade builds the real kernel the facade tests run.
func kernelFactoryForFacade() Kernel {
	return kernels.NewHotspot(48, 48, 30, 7)
}

// These tests exercise the public facade exactly as README's quick start
// does, so the documented entry points cannot rot.

func TestQuickStartFlow(t *testing.T) {
	profiles, err := Rodinia()
	if err != nil {
		t.Fatal(err)
	}
	if len(profiles) != 9 {
		t.Fatalf("Rodinia returned %d profiles, want 9", len(profiles))
	}
	kmeans, err := Profile(profiles, "kmeans")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(NewTestbed(), kmeans, DefaultConfig(Holistic))
	if err != nil {
		t.Fatal(err)
	}
	if res.Energy <= 0 {
		t.Error("no energy accounted")
	}
	if math.Abs(res.FinalRatio-0.20) > 0.051 {
		t.Errorf("kmeans converged to %v, want ~0.20", res.FinalRatio)
	}
}

func TestFacadeModes(t *testing.T) {
	profiles, err := Rodinia()
	if err != nil {
		t.Fatal(err)
	}
	hotspot, err := Profile(profiles, "hotspot")
	if err != nil {
		t.Fatal(err)
	}
	var energies []float64
	for _, mode := range []Mode{Baseline, FreqScaling, Division, Holistic} {
		cfg := DefaultConfig(mode)
		cfg.Iterations = 8
		res, err := Run(NewTestbed(), hotspot, cfg)
		if err != nil {
			t.Fatalf("%v: %v", mode, err)
		}
		energies = append(energies, float64(res.Energy))
	}
	// The paper's ordering: holistic cheapest, baseline most expensive.
	if energies[3] >= energies[0] {
		t.Errorf("holistic (%v) not cheaper than baseline (%v)", energies[3], energies[0])
	}
	if energies[3] >= energies[2] {
		t.Errorf("holistic (%v) not cheaper than division-only (%v)", energies[3], energies[2])
	}
	if energies[3] >= energies[1] {
		t.Errorf("holistic (%v) not cheaper than frequency-scaling-only (%v)", energies[3], energies[1])
	}
}

func TestNewExperiments(t *testing.T) {
	env, err := NewExperiments()
	if err != nil {
		t.Fatal(err)
	}
	res, err := env.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 9 {
		t.Errorf("Table2 rows = %d", len(res.Rows))
	}
}

func TestProfileMissing(t *testing.T) {
	profiles, err := Rodinia()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Profile(profiles, "not-a-workload"); err == nil {
		t.Error("missing workload accepted")
	}
}

// TestDeterminism: two identical runs must agree exactly — the simulated
// testbed is a deterministic discrete-event system, which is what makes
// every number in EXPERIMENTS.md reproducible.
func TestDeterminism(t *testing.T) {
	run := func() *Result {
		profiles, err := Rodinia()
		if err != nil {
			t.Fatal(err)
		}
		p, err := Profile(profiles, "hotspot")
		if err != nil {
			t.Fatal(err)
		}
		res, err := Run(NewTestbed(), p, DefaultConfig(Holistic))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a.Energy != b.Energy || a.TotalTime != b.TotalTime || a.FinalRatio != b.FinalRatio {
		t.Fatalf("runs differ: (%v,%v,%v) vs (%v,%v,%v)",
			a.Energy, a.TotalTime, a.FinalRatio, b.Energy, b.TotalTime, b.FinalRatio)
	}
	if len(a.Iterations) != len(b.Iterations) {
		t.Fatalf("iteration counts differ")
	}
	for i := range a.Iterations {
		if a.Iterations[i] != b.Iterations[i] {
			t.Fatalf("iteration %d differs: %+v vs %+v", i, a.Iterations[i], b.Iterations[i])
		}
	}
}

// TestRealComputeFacade exercises the real-compute plane through the
// public facade: characterize a kernel, calibrate it, run it in
// simulation, and run it for real. It is the plane's one wall-clock smoke
// test, on sleeping pools, hence its wide bands; the hetero and bridge
// tests run on model pools and assert exact values.
func TestRealComputeFacade(t *testing.T) {
	mk := func() Kernel { return kernelFactoryForFacade() }
	cpu := &Pool{Name: "cpu", Workers: 1, ItemDelay: 800 * time.Microsecond}
	acc := &Pool{Name: "acc", Workers: 1, ItemDelay: 200 * time.Microsecond}

	m, err := Characterize(mk, cpu, acc, CharacterizeOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if m.Slowdown < 2.5 || m.Slowdown > 5.5 {
		t.Errorf("slowdown %.2f, want ~4", m.Slowdown)
	}
	p, err := Calibrate(m.Spec)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig(Division)
	cfg.Iterations = 10
	res, err := Run(NewTestbed(), p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalRatio < 0.10 || res.FinalRatio > 0.30 {
		t.Errorf("simulated convergence %.2f outside the measured band", res.FinalRatio)
	}

	x := NewHeteroExecutor(mk(), cpu, acc, HeteroConfig{})
	rep := x.Run()
	if rep.FinalRatio < 0.10 || rep.FinalRatio > 0.30 {
		t.Errorf("real convergence %.2f outside the measured band", rep.FinalRatio)
	}
}

// TestMultiExecutorFacade exercises the k-way entry point.
func TestMultiExecutorFacade(t *testing.T) {
	x := NewMultiExecutor(kernelFactoryForFacade(), []*Pool{
		{Name: "a", Workers: 1}, {Name: "b", Workers: 2},
	}, MultiConfig{MaxIterations: 3})
	rep := x.Run()
	if len(rep.Iterations) != 3 {
		t.Errorf("ran %d iterations", len(rep.Iterations))
	}
}
