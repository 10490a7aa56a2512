package hetero

import (
	"math"
	"testing"
	"time"

	"greengpu/internal/division"
	"greengpu/internal/kernels"
)

func TestPoolValidate(t *testing.T) {
	good := &Pool{Name: "cpu", Workers: 2}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid pool rejected: %v", err)
	}
	if err := (&Pool{Name: "x", Workers: 0}).Validate(); err == nil {
		t.Error("zero workers accepted")
	}
	if err := (&Pool{Name: "x", Workers: 1, ItemDelay: -1}).Validate(); err == nil {
		t.Error("negative delay accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("ModelPool with zero per-item cost did not panic")
		}
	}()
	ModelPool("x", 1, 0)
}

func TestModelPoolReportsCost(t *testing.T) {
	k := kernels.NewHotspot(16, 16, 1, 1)
	if _, elapsed := ModelPool("m", 3, 250*time.Microsecond).Process(k, 2, 14); elapsed != 3*time.Millisecond {
		t.Errorf("model pool reported %v, want 12 items × 250µs", elapsed)
	}
}

func TestPoolProcessCorrectness(t *testing.T) {
	// Results must match the serial reference regardless of pool width.
	a := kernels.NewKMeans(300, 4, 2, 15, 5)
	b := kernels.NewKMeans(300, 4, 2, 15, 5)
	kernels.RunSerial(a)

	pool := &Pool{Name: "p", Workers: 4}
	for {
		parts, _ := pool.Process(b, 0, b.Items())
		if !b.EndIteration(parts) {
			break
		}
	}
	ca, cb := a.Centroids(), b.Centroids()
	for i := range ca {
		if math.Abs(ca[i]-cb[i]) > 1e-9 {
			t.Fatalf("centroid %d differs: %v vs %v", i, ca[i], cb[i])
		}
	}
}

func TestPoolProcessEmptyRange(t *testing.T) {
	k := kernels.NewHotspot(8, 8, 2, 1)
	pool := &Pool{Name: "p", Workers: 2}
	if parts, elapsed := pool.Process(k, 3, 3); parts != nil || elapsed != 0 {
		t.Errorf("empty range returned partials %v after %v", parts, elapsed)
	}
}

func TestExecutorRunsKernelToCompletion(t *testing.T) {
	k := kernels.NewHotspot(32, 32, 12, 3)
	x := New(k,
		&Pool{Name: "cpu", Workers: 1},
		&Pool{Name: "acc", Workers: 4},
		Config{})
	rep := x.Run()
	if k.Step() != 12 {
		t.Errorf("kernel ran %d steps, want 12", k.Step())
	}
	if len(rep.Iterations) != 12 {
		t.Errorf("report has %d iterations, want 12", len(rep.Iterations))
	}
	if rep.Kernel != "hotspot" {
		t.Errorf("kernel name %q", rep.Kernel)
	}
	if rep.TotalWall <= 0 {
		t.Error("no wall time recorded")
	}
}

func TestExecutorResultsMatchSerial(t *testing.T) {
	// Division must not change the computed answer.
	serial := kernels.NewPathFinder(120, 240, 9)
	kernels.RunSerial(serial)

	split := kernels.NewPathFinder(120, 240, 9)
	x := New(split,
		&Pool{Name: "cpu", Workers: 2},
		&Pool{Name: "acc", Workers: 4},
		Config{})
	x.Run()
	if split.BestCost() != serial.BestCost() {
		t.Errorf("divided run cost %d != serial %d", split.BestCost(), serial.BestCost())
	}
}

func TestExecutorRebalancesTowardFasterPool(t *testing.T) {
	// The CPU pool costs 4x more per item; from the 30% start the divider
	// steps down to the balance point 1/(1+4) = 20%: 13 of 64 rows on the
	// CPU (10.4 ms) against 51 on the accelerator (10.2 ms).
	k := kernels.NewHotspot(64, 64, 40, 7)
	x := New(k,
		ModelPool("cpu", 1, 800*time.Microsecond),
		ModelPool("acc", 1, 200*time.Microsecond),
		Config{})
	rep := x.Run()
	if rep.FinalRatio != 0.2 {
		t.Errorf("final CPU share %v, want 0.2", rep.FinalRatio)
	}
	last := rep.Iterations[len(rep.Iterations)-1]
	if last.CPUItems != 13 || last.TCPU != 10400*time.Microsecond || last.TAcc != 10200*time.Microsecond {
		t.Errorf("final iteration %+v, want 13 CPU rows at 10.4ms vs 10.2ms", last)
	}
}

func TestExecutorMaxIterations(t *testing.T) {
	k := kernels.NewHotspot(16, 16, 100, 11)
	x := New(k, &Pool{Name: "cpu", Workers: 1}, &Pool{Name: "acc", Workers: 2},
		Config{MaxIterations: 5})
	rep := x.Run()
	if len(rep.Iterations) != 5 {
		t.Errorf("ran %d iterations, want 5", len(rep.Iterations))
	}
}

func TestExecutorEnergyModel(t *testing.T) {
	// 32 rows at a 30% share: 10 CPU rows at 400µs = 4ms against 22
	// accelerator rows at 200µs = 4.4ms. Stepping to 25% would flip the
	// imbalance without shrinking it, so the safeguard holds 30% for all
	// 10 iterations: CPU busy 40ms + wait 4ms, accelerator busy 44ms.
	k := kernels.NewHotspot(32, 32, 10, 13)
	model := &EnergyModel{CPUBusy: 100, CPUIdle: 50, AccBusy: 120, AccIdle: 60}
	x := New(k,
		ModelPool("cpu", 1, 400*time.Microsecond),
		ModelPool("acc", 1, 200*time.Microsecond),
		Config{Energy: model})
	rep := x.Run()
	var sumWall time.Duration
	for _, it := range rep.Iterations {
		sumWall += it.Wall
	}
	if rep.TotalWall != sumWall || rep.TotalWall != 44*time.Millisecond {
		t.Errorf("TotalWall = %v, Σ Wall = %v, want 44ms", rep.TotalWall, sumWall)
	}
	if rep.CPUBusy+rep.CPUWait != sumWall || rep.AccBusy+rep.AccWait != sumWall {
		t.Errorf("time not conserved: cpu %v+%v, acc %v+%v, Σ Wall %v",
			rep.CPUBusy, rep.CPUWait, rep.AccBusy, rep.AccWait, sumWall)
	}
	if rep.CPUBusy != 40*time.Millisecond || rep.CPUWait != 4*time.Millisecond ||
		rep.AccBusy != 44*time.Millisecond || rep.AccWait != 0 {
		t.Errorf("busy/wait = cpu %v/%v, acc %v/%v", rep.CPUBusy, rep.CPUWait, rep.AccBusy, rep.AccWait)
	}
	// 100W·40ms + 50W·4ms + 120W·44ms + 60W·0 = 4 + 0.2 + 5.28 J.
	if math.Abs(float64(rep.Energy)-9.48) > 1e-9 {
		t.Errorf("energy = %v, want 9.48 J", rep.Energy)
	}
}

func TestExecutorObserver(t *testing.T) {
	k := kernels.NewHotspot(16, 16, 4, 17)
	seen := 0
	x := New(k, &Pool{Name: "cpu", Workers: 1}, &Pool{Name: "acc", Workers: 1},
		Config{OnIteration: func(IterationStat) { seen++ }})
	x.Run()
	if seen != 4 {
		t.Errorf("observer fired %d times, want 4", seen)
	}
}

func TestExecutorHistoryAndRatio(t *testing.T) {
	k := kernels.NewHotspot(16, 16, 6, 19)
	x := New(k, &Pool{Name: "cpu", Workers: 1}, &Pool{Name: "acc", Workers: 1}, Config{})
	if r := x.Ratio(); r != 0.30 {
		t.Errorf("initial ratio %v", r)
	}
	x.Run()
	if len(x.History()) != 6 {
		t.Errorf("history has %d entries", len(x.History()))
	}
}

func TestExecutorCustomDivisionConfig(t *testing.T) {
	cfg := division.DefaultConfig()
	cfg.Initial = 0.5
	cfg.Step = 0.1
	k := kernels.NewHotspot(16, 16, 3, 23)
	x := New(k, &Pool{Name: "cpu", Workers: 1}, &Pool{Name: "acc", Workers: 1},
		Config{Division: cfg})
	if x.Ratio() != 0.5 {
		t.Errorf("custom initial ratio not applied: %v", x.Ratio())
	}
	x.Run()
}

func TestNewPanics(t *testing.T) {
	k := kernels.NewHotspot(8, 8, 1, 1)
	cases := []func(){
		func() { New(nil, &Pool{Name: "a", Workers: 1}, &Pool{Name: "b", Workers: 1}, Config{}) },
		func() { New(k, nil, &Pool{Name: "b", Workers: 1}, Config{}) },
		func() { New(k, &Pool{Name: "a", Workers: 0}, &Pool{Name: "b", Workers: 1}, Config{}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestReportBalance(t *testing.T) {
	rep := &Report{Iterations: []IterationStat{
		{TCPU: 100 * time.Millisecond, TAcc: 80 * time.Millisecond, Wall: 100 * time.Millisecond},
	}}
	if got := rep.Balance(); math.Abs(got-0.2) > 1e-9 {
		t.Errorf("Balance = %v, want 0.2", got)
	}
	empty := &Report{}
	if empty.Balance() != 0 {
		t.Error("empty report balance should be 0")
	}
}

func TestBFSWithVaryingItems(t *testing.T) {
	// bfs frontiers change size every level; the executor must re-query
	// Items each iteration and still match the reference distances.
	b := kernels.NewBFS(3000, 3, 29)
	x := New(b, &Pool{Name: "cpu", Workers: 2}, &Pool{Name: "acc", Workers: 4}, Config{})
	x.Run()
	want := b.ReferenceDistances()
	for v := 0; v < 3000; v++ {
		if int32(b.Distance(v)) != want[v] {
			t.Fatalf("distance(%d) = %d, want %d", v, b.Distance(v), want[v])
		}
	}
}
