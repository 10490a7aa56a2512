package sweep

import (
	"reflect"
	"testing"
	"time"

	"greengpu/internal/core"
	"greengpu/internal/testbed"
	"greengpu/internal/units"
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
// (out-of-range ladder indices, an invalid bus).
func FuzzFastPathEquivalence(f *testing.F) {
	f.Add(uint8(0), int8(5), int8(5), int8(-1), uint8(4), true, int64(500_000), uint64(3_200_000_000))
	f.Add(uint8(3), int8(0), int8(2), int8(0), uint8(0), false, int64(0), uint64(1))
	f.Add(uint8(8), int8(6), int8(0), int8(1), uint8(1), true, int64(1)<<62, uint64(1)<<40)
	f.Add(uint8(5), int8(-2), int8(9), int8(7), uint8(63), false, int64(-1), uint64(0))
	e := testEngine(f)
	f.Fuzz(func(t *testing.T, wl uint8, c, m, cpu int8, iters uint8, spin bool, latency int64, bandwidth uint64) {
		eng := *e
		eng.Bus.Latency = time.Duration(latency)
		eng.Bus.Bandwidth = units.Bandwidth(bandwidth)
		prof := eng.Profiles[int(wl)%len(eng.Profiles)]
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
