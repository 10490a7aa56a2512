// Heterogeneous kmeans: GreenGPU's workload-division tier on real
// computation.
//
// This example clusters an actual synthetic dataset with Lloyd's
// algorithm, splitting every assignment pass between two worker pools of
// different speeds — the same division structure the paper implements
// with pthreads + CUDA (§VI). The division tier starts at a 30% CPU
// share, observes both sides' measured wall-clock times at each reduction
// point, and rebalances in 5% steps until the sides finish together.
//
//	go run ./examples/hetero-kmeans
package main

import (
	"fmt"
	"runtime"
	"time"

	"greengpu/internal/hetero"
	"greengpu/internal/kernels"
	"greengpu/internal/units"
)

func main() {
	// A "CPU" pool and a faster "accelerator" pool. The per-item delay
	// gives the pools a stable 4:1 speed asymmetry so the example
	// behaves the same on any machine; drop the delays to race raw
	// goroutine pools instead.
	cpu := &hetero.Pool{Name: "cpu", Workers: 2, ItemDelay: 8 * time.Microsecond}
	acc := &hetero.Pool{Name: "acc", Workers: runtime.NumCPU(), ItemDelay: 2 * time.Microsecond}

	km := kernels.NewKMeans(20000, 8, 8, 40, 42)

	x := hetero.New(km, cpu, acc, hetero.Config{
		// CPU-side and accelerator-side power envelopes (busy/idle),
		// so the report can estimate the idle-energy reduction that
		// motivates balancing the two sides.
		Energy: &hetero.EnergyModel{
			CPUBusy: 113, CPUIdle: 62,
			AccBusy: 137, AccIdle: 82,
		},
		OnIteration: func(it hetero.IterationStat) {
			fmt.Printf("iter %2d: cpu %5d items (%3.0f%%)  tcpu %7.1fms  tacc %7.1fms\n",
				it.Index+1, it.CPUItems, it.R*100,
				float64(it.TCPU.Microseconds())/1e3,
				float64(it.TAcc.Microseconds())/1e3)
		},
	})
	rep := x.Run()

	fmt.Println()
	fmt.Printf("kmeans converged after %d iterations; inertia %.1f\n", km.Iteration(), km.Cost())
	fmt.Printf("division settled at %.0f/%.0f (CPU/acc); final imbalance %.1f%%\n",
		rep.FinalRatio*100, (1-rep.FinalRatio)*100, rep.Balance()*100)
	fmt.Printf("busy: cpu %v, acc %v; waiting at barriers: cpu %v, acc %v\n",
		rep.CPUBusy.Round(time.Millisecond), rep.AccBusy.Round(time.Millisecond),
		rep.CPUWait.Round(time.Millisecond), rep.AccWait.Round(time.Millisecond))
	fmt.Printf("estimated energy: %s\n", rep.Energy)

	// Contrast with a static 50/50 split: the slower CPU pool drags
	// every iteration and the accelerator idles at each barrier.
	km2 := kernels.NewKMeans(20000, 8, 8, 40, 42)
	var staticEnergy units.Energy
	model := hetero.EnergyModel{CPUBusy: 113, CPUIdle: 62, AccBusy: 137, AccIdle: 82}
	for {
		n := km2.Items()
		half := n / 2
		var tCPU time.Duration
		var cpuParts []any
		done := make(chan struct{})
		go func() {
			cpuParts, tCPU = cpu.Process(km2, 0, half)
			close(done)
		}()
		accParts, tAcc := acc.Process(km2, half, n)
		<-done
		staticEnergy += model.CPUBusy.Over(tCPU) + model.AccBusy.Over(tAcc)
		if tCPU < tAcc {
			staticEnergy += model.CPUIdle.Over(tAcc - tCPU)
		} else {
			staticEnergy += model.AccIdle.Over(tCPU - tAcc)
		}
		if !km2.EndIteration(append(cpuParts, accParts...)) {
			break
		}
	}
	fmt.Printf("\nstatic 50/50 for comparison: %s (%.1f%% more than dynamic division)\n",
		staticEnergy, 100*(float64(staticEnergy)/float64(rep.Energy)-1))
}
