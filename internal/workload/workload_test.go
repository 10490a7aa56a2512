package workload

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"greengpu/internal/gpusim"
	"greengpu/internal/sim"
	"greengpu/internal/testbed"
)

func calibrated(t *testing.T, name string) *Profile {
	t.Helper()
	profiles, err := Rodinia(testbed.GeForce8800GTX(), testbed.PhenomIIX2())
	if err != nil {
		t.Fatalf("Rodinia: %v", err)
	}
	p, err := ByName(profiles, name)
	if err != nil {
		t.Fatalf("ByName: %v", err)
	}
	return p
}

func TestSpecsValid(t *testing.T) {
	specs := Specs()
	if len(specs) != 9 {
		t.Fatalf("got %d specs, want the 9 Table II workloads", len(specs))
	}
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Errorf("spec %s invalid: %v", s.Name, err)
		}
	}
}

func TestSpecValidateRejectsBadSpecs(t *testing.T) {
	base := func() Spec {
		return Spec{
			Name:             "x",
			IterationSeconds: 10,
			Iterations:       5,
			CPUSlowdown:      2,
			Phases:           []PhaseTarget{{Label: "p", Fraction: 1, CoreUtil: 0.5, MemUtil: 0.5}},
		}
	}
	muts := []struct {
		name string
		mut  func(*Spec)
	}{
		{"empty name", func(s *Spec) { s.Name = "" }},
		{"zero iter seconds", func(s *Spec) { s.IterationSeconds = 0 }},
		{"zero iterations", func(s *Spec) { s.Iterations = 0 }},
		{"no phases", func(s *Spec) { s.Phases = nil }},
		{"fraction sum", func(s *Spec) { s.Phases[0].Fraction = 0.5 }},
		{"negative fraction", func(s *Spec) { s.Phases[0].Fraction = -1 }},
		{"util > 1", func(s *Spec) { s.Phases[0].CoreUtil = 1.2 }},
		{"util < 0", func(s *Spec) { s.Phases[0].MemUtil = -0.2 }},
		{"zero slowdown", func(s *Spec) { s.CPUSlowdown = 0 }},
		{"negative transfer", func(s *Spec) { s.TransferMB = -1 }},
		{"negative repartition", func(s *Spec) { s.RepartitionMB = -1 }},
	}
	for _, m := range muts {
		s := base()
		m.mut(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: accepted", m.name)
		}
	}
}

func TestCalibrationRoundTrip(t *testing.T) {
	// The calibrated profile, executed on the simulated GPU at peak
	// clocks, must exhibit exactly the spec's utilizations and iteration
	// time — this is the core guarantee of the inverse model.
	gcfg := testbed.GeForce8800GTX()
	for _, spec := range Specs() {
		p := MustCalibrate(spec, gcfg, testbed.PhenomIIX2())
		e := sim.New()
		g := gpusim.New(e, gcfg)
		g.SetLevels(len(gcfg.CoreLevels)-1, len(gcfg.MemLevels)-1)

		before := g.Counters()
		k := p.GPUKernel(spec.Name, UnitsPerIteration)
		g.Submit(k)
		e.Run()

		gotT := k.ExecTime()
		wantT := time.Duration(spec.IterationSeconds * float64(time.Second))
		if d := gotT - wantT; d < -time.Millisecond || d > time.Millisecond {
			t.Errorf("%s: iteration time %v, want %v", spec.Name, gotT, wantT)
		}

		w := g.Counters().Since(before)
		wantC, wantM := p.AggregateUtilization()
		if math.Abs(w.CoreUtil-wantC) > 0.01 {
			t.Errorf("%s: core util %v, want %v", spec.Name, w.CoreUtil, wantC)
		}
		if math.Abs(w.MemUtil-wantM) > 0.01 {
			t.Errorf("%s: mem util %v, want %v", spec.Name, w.MemUtil, wantM)
		}
	}
}

func TestCalibrateInfeasibleTargets(t *testing.T) {
	spec := Spec{
		Name:             "impossible",
		IterationSeconds: 10,
		Iterations:       5,
		CPUSlowdown:      2,
		Phases:           []PhaseTarget{{Label: "p", Fraction: 1, CoreUtil: 0.99, MemUtil: 0.95}},
	}
	_, err := Calibrate(spec, testbed.GeForce8800GTX(), testbed.PhenomIIX2())
	if err == nil {
		t.Fatal("infeasible targets accepted (max+γ·min > 1)")
	}
}

func TestMustCalibratePanicsOnBadSpec(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustCalibrate(Spec{}, testbed.GeForce8800GTX(), testbed.PhenomIIX2())
}

func TestCPUSlowdownRealized(t *testing.T) {
	// The CPU at peak P-state must take CPUSlowdown× the GPU's iteration
	// time for the same work.
	ccfg := testbed.PhenomIIX2()
	for _, name := range []string{"kmeans", "hotspot", "nbody"} {
		p := calibrated(t, name)
		spec := p.Spec()
		cpuOps := p.CPUOps(UnitsPerIteration)
		// Time on all cores at peak.
		peak := ccfg.PStates[len(ccfg.PStates)-1].Frequency
		cpuT := cpuOps / (float64(ccfg.Cores) * ccfg.IPC * float64(peak))
		want := spec.CPUSlowdown * spec.IterationSeconds
		if math.Abs(cpuT-want) > 1e-6*want {
			t.Errorf("%s: CPU time %v s, want %v s", name, cpuT, want)
		}
	}
}

func TestKernelScalesWithUnits(t *testing.T) {
	p := calibrated(t, "kmeans")
	full := p.GPUKernel("full", UnitsPerIteration)
	half := p.GPUKernel("half", UnitsPerIteration/2)
	if len(full.Phases) != len(half.Phases) {
		t.Fatal("phase counts differ")
	}
	for i := range full.Phases {
		if math.Abs(half.Phases[i].Ops*2-full.Phases[i].Ops) > 1e-6*full.Phases[i].Ops {
			t.Errorf("phase %d ops not linear", i)
		}
	}
	empty := p.GPUKernel("none", 0)
	if len(empty.Phases) != 0 {
		t.Error("zero units should give an empty kernel")
	}
}

func TestFillKernelMatchesGPUKernelInPlace(t *testing.T) {
	p := calibrated(t, "kmeans")
	k := &gpusim.Kernel{Name: "reused"}
	p.FillKernel(k, UnitsPerIteration)
	backing := &k.Phases[0]
	for _, units := range []float64{UnitsPerIteration / 3, UnitsPerIteration, 0, UnitsPerIteration / 2} {
		p.FillKernel(k, units)
		want := p.GPUKernel("fresh", units)
		if !reflect.DeepEqual(k.Phases, want.Phases) && !(len(k.Phases) == 0 && len(want.Phases) == 0) {
			t.Fatalf("FillKernel(%v) phases %+v, GPUKernel %+v", units, k.Phases, want.Phases)
		}
		if len(k.Phases) > 0 && &k.Phases[0] != backing {
			t.Fatalf("FillKernel(%v) reallocated the phases", units)
		}
	}
	if k.Name != "reused" {
		t.Errorf("FillKernel renamed the kernel to %q", k.Name)
	}
}

func TestCPUOpsAndTransfers(t *testing.T) {
	p := calibrated(t, "kmeans")
	if p.CPUOps(0) != 0 || p.CPUOps(-5) != 0 {
		t.Error("non-positive units should give zero CPU ops")
	}
	if p.TransferBytes(0) != 0 {
		t.Error("zero units should give zero transfer")
	}
	// kmeans: 224 MB per 100 units.
	got := float64(p.TransferBytes(UnitsPerIteration))
	if math.Abs(got-224e6) > 1 {
		t.Errorf("TransferBytes = %v, want 224e6", got)
	}
}

func TestRepartitionTraffic(t *testing.T) {
	p := calibrated(t, "kmeans") // 320 MB per full ratio swing
	got := float64(p.RepartitionTraffic(0.30, 0.25))
	if math.Abs(got-0.05*320e6) > 1 {
		t.Errorf("RepartitionTraffic = %v, want 16e6", got)
	}
	if p.RepartitionTraffic(0.25, 0.30) != p.RepartitionTraffic(0.30, 0.25) {
		t.Error("repartition traffic should be symmetric")
	}
}

func TestIterationTimeGPUMatchesExecution(t *testing.T) {
	gcfg := testbed.GeForce8800GTX()
	p := calibrated(t, "streamcluster")
	e := sim.New()
	g := gpusim.New(e, gcfg)
	g.SetLevels(2, 3)
	predicted := p.IterationTimeGPU(g, 2, 3)
	k := p.GPUKernel("sc", UnitsPerIteration)
	g.Submit(k)
	e.Run()
	if d := k.ExecTime() - predicted; d < -time.Millisecond || d > time.Millisecond {
		t.Errorf("predicted %v, executed %v", predicted, k.ExecTime())
	}
}

func TestTableIIClasses(t *testing.T) {
	// The calibrated profiles must reproduce Table II's qualitative
	// characterization.
	cases := []struct {
		name        string
		coreClass   Class
		memClass    Class
		fluctuating bool
	}{
		{"bfs", High, High, false},
		{"lud", Medium, Low, false},
		{"nbody", High, Medium, false},
		{"PF", Low, Low, false},
		{"QG", Medium, Low, true}, // aggregate medium; the point is fluctuation
		{"srad_v2", High, Medium, false},
		{"hotspot", Medium, Low, false},
		{"kmeans", Medium, Low, false},
		{"streamcluster", Low, Medium, true},
	}
	for _, c := range cases {
		p := calibrated(t, c.name)
		uc, um := p.AggregateUtilization()
		if got := Classify(uc); got != c.coreClass {
			t.Errorf("%s: core class %v (u=%.2f), want %v", c.name, got, uc, c.coreClass)
		}
		if got := Classify(um); got != c.memClass {
			t.Errorf("%s: mem class %v (u=%.2f), want %v", c.name, got, um, c.memClass)
		}
		if got := p.Fluctuating(); got != c.fluctuating {
			t.Errorf("%s: fluctuating = %v, want %v", c.name, got, c.fluctuating)
		}
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		u    float64
		want Class
	}{
		{0, Low}, {0.44, Low}, {0.45, Medium}, {0.74, Medium}, {0.75, High}, {1, High},
	}
	for _, c := range cases {
		if got := Classify(c.u); got != c.want {
			t.Errorf("Classify(%v) = %v, want %v", c.u, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	if Low.String() != "low" || Medium.String() != "medium" || High.String() != "high" {
		t.Error("class strings wrong")
	}
	if Class(9).String() != "Class(9)" {
		t.Errorf("unknown class string = %q", Class(9).String())
	}
}

func TestByNameMissing(t *testing.T) {
	profiles, err := Rodinia(testbed.GeForce8800GTX(), testbed.PhenomIIX2())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ByName(profiles, "doom3"); err == nil {
		t.Error("ByName on missing workload should error")
	}
}

func TestRodiniaSorted(t *testing.T) {
	profiles, err := Rodinia(testbed.GeForce8800GTX(), testbed.PhenomIIX2())
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(profiles); i++ {
		if profiles[i-1].Name >= profiles[i].Name {
			t.Errorf("profiles not sorted: %s >= %s", profiles[i-1].Name, profiles[i].Name)
		}
	}
}

// Property: for any feasible utilization pair, calibration round-trips
// through the device model.
func TestCalibrationRoundTripProperty(t *testing.T) {
	gcfg := testbed.GeForce8800GTX()
	ccfg := testbed.PhenomIIX2()
	f := func(a, b uint8) bool {
		uc := float64(a) / 255 * 0.85
		um := float64(b) / 255 * 0.85
		// Keep targets feasible under γ=0.15.
		hi, lo := uc, um
		if lo > hi {
			hi, lo = lo, hi
		}
		if hi+gcfg.OverlapGamma*lo > 0.99 {
			return true
		}
		spec := Spec{
			Name:             "prop",
			IterationSeconds: 10,
			Iterations:       1,
			CPUSlowdown:      2,
			Phases:           []PhaseTarget{{Label: "p", Fraction: 1, CoreUtil: uc, MemUtil: um}},
		}
		p, err := Calibrate(spec, gcfg, ccfg)
		if err != nil {
			return false
		}
		e := sim.New()
		g := gpusim.New(e, gcfg)
		g.SetLevels(5, 5)
		before := g.Counters()
		g.Submit(p.GPUKernel("p", UnitsPerIteration))
		e.Run()
		w := g.Counters().Since(before)
		return math.Abs(w.CoreUtil-uc) < 0.02 && math.Abs(w.MemUtil-um) < 0.02 &&
			math.Abs(w.Duration.Seconds()-10) < 0.01
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
