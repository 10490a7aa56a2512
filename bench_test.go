package greengpu

// This file is the benchmark harness for the paper's evaluation: one
// testing.B benchmark per table and figure (DESIGN.md §4). Each benchmark
// regenerates its experiment end to end on the simulated testbed and
// reports, alongside ns/op, the headline metric the paper's figure shows
// (savings in percent, convergence points, etc.) as custom benchmark
// metrics. Run with:
//
//	go test -bench=. -benchmem
//
// Shape validation (who wins, where the knees and optima fall) lives in
// internal/experiments tests; the benchmarks here are the regeneration
// entry points and record the measured values for EXPERIMENTS.md.

import (
	"testing"

	"greengpu/internal/experiments"
)

// benchEnv is shared: experiments are deterministic and every run uses a
// fresh machine internally.
var benchEnv = func() *experiments.Env {
	e, err := experiments.NewEnv()
	if err != nil {
		panic(err)
	}
	return e
}()

// BenchmarkTable2 regenerates Table II (workload characterization at peak
// clocks).
func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchEnv.Table2()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(res.Rows)), "workloads")
		}
	}
}

// BenchmarkFig1 regenerates Fig. 1: normalized execution time and relative
// GPU energy across both frequency-domain sweeps for nbody and
// streamcluster.
func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchEnv.Fig1()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			// The memory-sweep knee metric: nbody's slowdown at the
			// lowest memory clock (paper: negligible).
			p := res.Select("nbody", experiments.DomainMemory)
			b.ReportMetric((p[0].NormTime-1)*100, "nbody-mem-slowdown-%")
			b.ReportMetric((1-p[0].RelEnergy)*100, "nbody-mem-saving-%")
		}
	}
}

// BenchmarkFig2 regenerates Fig. 2: the kmeans static-division energy
// sweep with its U-shape and small-CPU-share optimum.
func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchEnv.Fig2()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.OptimalShare*100, "optimal-cpu-share-%")
		}
	}
}

// BenchmarkFig5 regenerates Fig. 5: the streamcluster DVFS trace and its
// power/time comparison against best-performance.
func BenchmarkFig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchEnv.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.AvgPowerBase.Watts()-res.AvgPowerScaled.Watts(), "avg-power-drop-W")
			b.ReportMetric(res.Samples[len(res.Samples)-1].MemMHz, "converged-mem-MHz")
		}
	}
}

// BenchmarkFig6 regenerates Fig. 6: per-workload frequency-scaling savings
// (a: GPU energy, b: dynamic energy and execution delta, c: emulated
// CPU+GPU throttling).
func BenchmarkFig6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchEnv.Fig6()
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			s := res.Summary
			b.ReportMetric(s.AvgGPUSaving*100, "avg-gpu-saving-%")
			b.ReportMetric(s.MaxGPUSaving*100, "max-gpu-saving-%")
			b.ReportMetric(s.AvgDynamicSaving*100, "avg-dynamic-saving-%")
			b.ReportMetric(s.AvgExecDelta*100, "avg-exec-delta-%")
			b.ReportMetric(s.AvgSystemSaving*100, "avg-cpu+gpu-saving-%")
		}
	}
}

// BenchmarkFig7Kmeans regenerates Fig. 7a: the kmeans division trace
// (paper: 30% start, converges to 20/80 after ~4 iterations).
func BenchmarkFig7Kmeans(b *testing.B) { benchFig7(b, "kmeans") }

// BenchmarkFig7Hotspot regenerates Fig. 7b: the hotspot division trace
// (paper: converges to 50/50).
func BenchmarkFig7Hotspot(b *testing.B) { benchFig7(b, "hotspot") }

func benchFig7(b *testing.B, name string) {
	for i := 0; i < b.N; i++ {
		res, err := benchEnv.Fig7(name)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.ConvergedRatio*100, "converged-cpu-share-%")
			b.ReportMetric(float64(res.ConvergedAfter), "converged-after-iters")
		}
	}
}

// BenchmarkFig8Hotspot regenerates Fig. 8a: hotspot under GreenGPU vs
// division-only vs frequency-scaling-only.
func BenchmarkFig8Hotspot(b *testing.B) { benchFig8(b, "hotspot") }

// BenchmarkFig8Kmeans regenerates Fig. 8b for kmeans.
func BenchmarkFig8Kmeans(b *testing.B) { benchFig8(b, "kmeans") }

func benchFig8(b *testing.B, name string) {
	for i := 0; i < b.N; i++ {
		res, err := benchEnv.Fig8(name)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(res.SavingVsDivision*100, "saving-vs-division-%")
			b.ReportMetric(res.SavingVsFreqScaling*100, "saving-vs-freqscaling-%")
			b.ReportMetric(res.SavingVsBaseline*100, "saving-vs-default-%")
		}
	}
}

// BenchmarkStaticSweep regenerates the §VII-B optimality study: dynamic
// division scored against the best static division on a 5% grid.
func BenchmarkStaticSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := benchEnv.StaticSweep("kmeans", "hotspot")
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, row := range res.Rows {
				if row.Workload == "hotspot" {
					b.ReportMetric(row.SavingShare*100, "hotspot-captured-saving-%")
					b.ReportMetric(row.ExecDeltaVsOptimal*100, "hotspot-exec-delta-%")
				}
			}
		}
	}
}

// BenchmarkAblations regenerates the DESIGN.md §6 ablation suite (step
// size, safeguard, WMA constants, tier decoupling, sensor noise, γ).
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tables, err := benchEnv.AblationTables("kmeans")
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(len(tables)), "studies")
		}
	}
}

// The *Run benchmarks measure one full framework run (20 iterations of
// kmeans) on the discrete-event testbed in each core.Run mode — the
// simulator's end-to-end throughput. Allocations are reported because a
// framework iteration allocates nothing: allocs/op is per-run setup only.

// BenchmarkHolisticRun runs both tiers: GreenGPU proper.
func BenchmarkHolisticRun(b *testing.B) { benchRun(b, DefaultConfig(Holistic)) }

// BenchmarkFreqScalingRun runs tier 2 only, all work on the GPU.
func BenchmarkFreqScalingRun(b *testing.B) { benchRun(b, DefaultConfig(FreqScaling)) }

// BenchmarkDivisionRun runs tier 1 only, every clock at peak.
func BenchmarkDivisionRun(b *testing.B) { benchRun(b, DefaultConfig(Division)) }

// BenchmarkStaticDivisionRun runs the fixed-frequency baseline with a
// pinned 30% CPU share, one point of the paper's Fig. 2 sweep.
func BenchmarkStaticDivisionRun(b *testing.B) {
	cfg := DefaultConfig(Baseline)
	r := 0.3
	cfg.StaticRatio = &r
	benchRun(b, cfg)
}

func benchRun(b *testing.B, cfg Config) {
	kmeans, err := Profile(benchEnv.Profiles, "kmeans")
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Run(NewTestbed(), kmeans, cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Energy <= 0 {
			b.Fatal("no energy accounted")
		}
	}
}
