package sweep

import (
	"math"
	"reflect"
	"strconv"
	"testing"
	"time"

	"greengpu/internal/core"
	"greengpu/internal/cpusim"
	"greengpu/internal/gpusim"
	"greengpu/internal/testbed"
	"greengpu/internal/units"
	"greengpu/internal/workload"
)

// FuzzSweepSpec drives ParseSpec with arbitrary input: parsing must never
// panic, accepted specs must validate, and expansion against a fixed
// engine must be deterministic across calls.
func FuzzSweepSpec(f *testing.F) {
	for _, seed := range []string{
		"",
		"workloads=all core=all mem=all cpu=peak iters=4",
		"workloads=kmeans,nbody core=0-2 mem=1,3,5 cpu=0 mode=holistic",
		"draws=8 seed=2012 mode=scaling",
		"core=0-99999999999",
		"core=2-0 bogus==x",
	} {
		f.Add(seed)
	}
	e := testEngine(f)
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		if verr := spec.Validate(); verr != nil {
			t.Fatalf("ParseSpec(%q) accepted a spec that fails Validate: %v", s, verr)
		}
		a, errA := e.Expand(spec)
		b, errB := e.Expand(spec)
		if (errA == nil) != (errB == nil) || !reflect.DeepEqual(a, b) {
			t.Fatalf("Expand(%q) is not deterministic", s)
		}
	})
}

// FuzzFastPathEquivalence is the closed form's differential check, the
// same pattern as sim's FuzzEngineVsModel: for an arbitrary workload,
// (core, mem, CPU) ladder point, iteration count, SpinWait setting and
// bus, Batch.Eval must take the closed form and return a result DeepEqual
// to core.Run on a fresh machine — or fail exactly when core.Run fails
// (out-of-range ladder indices, an invalid bus). An empty shape draws one
// of the calibrated testbed profiles; any other shape calibrates a random
// phase mix (see fuzzProfile).
func FuzzFastPathEquivalence(f *testing.F) {
	f.Add(uint8(0), int8(5), int8(5), int8(-1), uint8(4), true, int64(500_000), uint64(3_200_000_000), []byte(nil))
	f.Add(uint8(3), int8(0), int8(2), int8(0), uint8(0), false, int64(0), uint64(1), []byte(nil))
	f.Add(uint8(8), int8(6), int8(0), int8(1), uint8(1), true, int64(1)<<62, uint64(1)<<40, []byte(nil))
	f.Add(uint8(5), int8(-2), int8(9), int8(7), uint8(63), false, int64(-1), uint64(0), []byte(nil))
	// 24 phases, some zero-fraction, some with extreme demands.
	f.Add(uint8(0), int8(3), int8(4), int8(-1), uint8(3), true, int64(500_000), uint64(3_200_000_000),
		[]byte{12, 2, 7, 40, 23, 9, 200, 31, 8, 0, 1, 77, 250, 2, 130, 16, 5, 99})
	// A 1e12 s iteration: the clock saturates at sim.MaxTime inside the
	// first kernel, and every later window is clipped to nothing.
	f.Add(uint8(0), int8(5), int8(5), int8(-1), uint8(3), true, int64(500_000), uint64(3_200_000_000),
		[]byte{24, 0, 3, 1, 0, 128, 64, 7, 3})
	e := testEngine(f)
	f.Fuzz(func(t *testing.T, wl uint8, c, m, cpu int8, iters uint8, spin bool, latency int64, bandwidth uint64, shape []byte) {
		eng := *e
		eng.Bus.Latency = time.Duration(latency)
		eng.Bus.Bandwidth = units.Bandwidth(bandwidth)
		prof := eng.Profiles[int(wl)%len(eng.Profiles)]
		if len(shape) > 0 {
			if prof = fuzzProfile(eng.GPU, eng.CPU, shape); prof == nil {
				return
			}
			eng.Profiles = []*workload.Profile{prof}
		}
		cfg := core.DefaultConfig(core.Baseline)
		cfg.Iterations = int(iters % 64)
		cfg.SpinWait = spin
		lv := core.Levels{Core: int(c), Mem: int(m), CPU: int(cpu)}
		if cpu < 0 {
			lv.CPU = len(eng.CPU.PStates) - 1
		}
		cfg.InitialLevels = &lv

		b, err := eng.NewBatch(prof.Name)
		if err != nil {
			if eng.Bus.Validate() == nil {
				t.Fatalf("NewBatch rejected a valid bus %+v: %v", eng.Bus, err)
			}
			return
		}
		got, fast, gotErr := b.Eval(prof.Name, cfg)
		want, wantErr := core.Run(testbed.NewFrom(eng.GPU, eng.CPU, eng.Bus), prof, cfg)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("levels %+v: Eval error %v, core.Run error %v", lv, gotErr, wantErr)
		}
		if gotErr != nil {
			return
		}
		if !fast {
			t.Fatalf("levels %+v: a baseline point missed the closed form", lv)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("levels %+v iters %d spin %v bus %+v: closed form diverges from core.Run\n got: %+v\nwant: %+v",
				lv, cfg.Iterations, spin, eng.Bus, got, want)
		}
	})
}

// fuzzProfile calibrates a random phase mix from the fuzzer's shape bytes
// (read cyclically): 1–24 phases with random work fractions and peak-clock
// utilizations, and an iteration time from 1 ps to 1e12 s — far past the
// clock horizon. It then goes beyond what a Spec can express, giving some
// phases a zero fraction and scaling others' ops or bytes per unit by up
// to 2^±64. It returns nil when the spec does not calibrate.
func fuzzProfile(gpu gpusim.Config, cpu cpusim.Config, shape []byte) *workload.Profile {
	i := 0
	next := func() byte {
		b := shape[i%len(shape)]
		i++
		return b
	}
	spec := workload.Spec{
		Name:             "fuzz",
		IterationSeconds: math.Pow(10, float64(int(next()%25)-12)),
		Iterations:       1 + int(next()%8),
		CPUSlowdown:      1 + float64(next()),
		TransferMB:       float64(next()),
		Phases:           make([]workload.PhaseTarget, 1+int(next())%24),
	}
	sum := 0.0
	for j := range spec.Phases {
		ph := &spec.Phases[j]
		ph.Label = strconv.Itoa(j)
		ph.Fraction = 1 + float64(next())
		sum += ph.Fraction
		ph.CoreUtil, ph.MemUtil = float64(next())/255, float64(next())/255
		// Keep the targets feasible: max + γ·min ≤ 1.
		lo, hi := math.Min(ph.CoreUtil, ph.MemUtil), math.Max(ph.CoreUtil, ph.MemUtil)
		if s := hi + gpu.OverlapGamma*lo; s > 1 {
			ph.CoreUtil, ph.MemUtil = ph.CoreUtil/s, ph.MemUtil/s
		}
	}
	for j := range spec.Phases {
		spec.Phases[j].Fraction /= sum
	}
	prof, err := workload.Calibrate(spec, gpu, cpu)
	if err != nil {
		return nil
	}
	for j := range prof.Phases {
		ph := &prof.Phases[j]
		switch next() % 8 {
		case 0:
			ph.Fraction = 0
		case 1:
			ph.OpsPerUnit = math.Ldexp(ph.OpsPerUnit, int(int8(next())/2))
		case 2:
			ph.BytesPerUnit = math.Ldexp(ph.BytesPerUnit, int(int8(next())/2))
		}
	}
	return prof
}
