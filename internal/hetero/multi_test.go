package hetero

import (
	"math"
	"testing"
	"time"

	"greengpu/internal/kernels"
)

func TestMultiValidation(t *testing.T) {
	k := kernels.NewHotspot(8, 8, 1, 1)
	good := []*Pool{{Name: "a", Workers: 1}, {Name: "b", Workers: 1}}
	cases := []func(){
		func() { NewMulti(nil, good, MultiConfig{}) },
		func() { NewMulti(k, good[:1], MultiConfig{}) },
		func() { NewMulti(k, []*Pool{good[0], nil}, MultiConfig{}) },
		func() { NewMulti(k, []*Pool{good[0], {Name: "bad", Workers: 0}}, MultiConfig{}) },
		func() { NewMulti(k, good, MultiConfig{Smoothing: 2}) },
		func() { NewMulti(k, good, MultiConfig{Smoothing: -0.5}) },
		func() { NewMulti(k, good, MultiConfig{Smoothing: math.NaN()}) },
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

func TestMultiInitialSharesEqual(t *testing.T) {
	k := kernels.NewHotspot(8, 8, 1, 1)
	x := NewMulti(k, []*Pool{
		{Name: "a", Workers: 1}, {Name: "b", Workers: 1}, {Name: "c", Workers: 1},
	}, MultiConfig{})
	for _, s := range x.Shares() {
		if math.Abs(s-1.0/3) > 1e-12 {
			t.Errorf("initial shares = %v", x.Shares())
		}
	}
}

func TestMultiResultsMatchSerial(t *testing.T) {
	serial := kernels.NewPathFinder(80, 240, 5)
	kernels.RunSerial(serial)
	split := kernels.NewPathFinder(80, 240, 5)
	x := NewMulti(split, []*Pool{
		{Name: "a", Workers: 1}, {Name: "b", Workers: 2}, {Name: "c", Workers: 2},
	}, MultiConfig{})
	x.Run()
	if split.BestCost() != serial.BestCost() {
		t.Errorf("3-way run cost %d != serial %d", split.BestCost(), serial.BestCost())
	}
}

func TestMultiSharesTrackPoolSpeeds(t *testing.T) {
	// Per-item costs 200/400/800µs are rates 4:2:1, so after the first
	// measurement the shares are (4/7, 2/7, 1/7): 37/18/9 of 64 rows,
	// finishing in 7.4/7.2/7.2ms.
	k := kernels.NewHotspot(64, 64, 30, 3)
	x := NewMulti(k, []*Pool{
		ModelPool("fast", 1, 200*time.Microsecond),
		ModelPool("mid", 1, 400*time.Microsecond),
		ModelPool("slow", 1, 800*time.Microsecond),
	}, MultiConfig{})
	rep := x.Run()
	want := []float64{4.0 / 7, 2.0 / 7, 1.0 / 7}
	for i, s := range rep.FinalShares {
		if math.Abs(s-want[i]) > 1e-12 {
			t.Errorf("pool %s share %v, want %v", rep.Pools[i], s, want[i])
		}
	}
	if imb := rep.Imbalance(); math.Abs(imb-0.2/7.4) > 1e-12 {
		t.Errorf("final imbalance %v, want 0.2ms/7.4ms", imb)
	}
}

func TestMultiMaxIterations(t *testing.T) {
	k := kernels.NewHotspot(16, 16, 100, 5)
	x := NewMulti(k, []*Pool{{Name: "a", Workers: 1}, {Name: "b", Workers: 1}},
		MultiConfig{MaxIterations: 4})
	rep := x.Run()
	if len(rep.Iterations) != 4 {
		t.Errorf("ran %d iterations, want 4", len(rep.Iterations))
	}
}

func TestMultiObserver(t *testing.T) {
	k := kernels.NewHotspot(16, 16, 5, 7)
	seen := 0
	x := NewMulti(k, []*Pool{{Name: "a", Workers: 1}, {Name: "b", Workers: 1}},
		MultiConfig{OnIteration: func(MultiIterationStat) { seen++ }})
	x.Run()
	if seen != 5 {
		t.Errorf("observer fired %d times, want 5", seen)
	}
}

func TestMultiSplitCountsSumToItems(t *testing.T) {
	k := kernels.NewHotspot(16, 16, 3, 9)
	x := NewMulti(k, []*Pool{
		{Name: "a", Workers: 1}, {Name: "b", Workers: 1}, {Name: "c", Workers: 1},
	}, MultiConfig{})
	rep := x.Run()
	for _, it := range rep.Iterations {
		sum := 0
		for _, c := range it.Counts {
			sum += c
		}
		if sum != it.Items {
			t.Errorf("iteration %d: counts sum to %d, want %d", it.Index, sum, it.Items)
		}
	}
}

func TestMultiImbalanceEmpty(t *testing.T) {
	rep := &MultiReport{}
	if rep.Imbalance() != 0 {
		t.Error("empty report imbalance should be 0")
	}
}

func TestMultiBFSVaryingFrontier(t *testing.T) {
	b := kernels.NewBFS(2500, 3, 11)
	x := NewMulti(b, []*Pool{
		{Name: "a", Workers: 2}, {Name: "b", Workers: 2}, {Name: "c", Workers: 2},
	}, MultiConfig{})
	x.Run()
	want := b.ReferenceDistances()
	for v := 0; v < 2500; v++ {
		if int32(b.Distance(v)) != want[v] {
			t.Fatalf("distance(%d) = %d, want %d", v, b.Distance(v), want[v])
		}
	}
}

func TestMultiEnergyModel(t *testing.T) {
	// Iteration 1 splits 32 rows 16/16: 3.2ms against 1.6ms. The rates
	// 5000/s and 10000/s then give shares 1/3, 2/3 and counts 11/21
	// (2.2ms, 2.1ms) for the other 7 iterations. Σ Wall = 3.2 + 7·2.2 =
	// 18.6ms; pool a never waits, pool b waits 1.6 + 7·0.1 = 2.3ms.
	k := kernels.NewHotspot(32, 32, 8, 13)
	x := NewMulti(k, []*Pool{
		ModelPool("a", 1, 200*time.Microsecond),
		ModelPool("b", 1, 100*time.Microsecond),
	}, MultiConfig{Energy: []PoolPower{{Busy: 100, Idle: 50}, {Busy: 140, Idle: 80}}})
	rep := x.Run()
	var sumWall time.Duration
	for _, it := range rep.Iterations {
		sumWall += it.Wall
	}
	if rep.TotalWall != sumWall || sumWall != 18600*time.Microsecond {
		t.Errorf("TotalWall = %v, Σ Wall = %v, want 18.6ms", rep.TotalWall, sumWall)
	}
	for i := range rep.Pools {
		if rep.Busy[i]+rep.Wait[i] != sumWall {
			t.Errorf("pool %s: busy %v + wait %v != Σ Wall %v", rep.Pools[i], rep.Busy[i], rep.Wait[i], sumWall)
		}
	}
	if rep.Wait[0] != 0 || rep.Wait[1] != 2300*time.Microsecond {
		t.Errorf("waits = %v, want [0 2.3ms]", rep.Wait)
	}
	// 100W·18.6ms + 50W·0 + 140W·16.3ms + 80W·2.3ms = 1.86 + 2.282 + 0.184 J.
	if math.Abs(float64(rep.Energy)-4.326) > 1e-9 {
		t.Errorf("Energy = %v, want 4.326 J", rep.Energy)
	}
}

func TestMultiEnergyModelWrongLengthPanics(t *testing.T) {
	k := kernels.NewHotspot(8, 8, 1, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewMulti(k, []*Pool{{Name: "a", Workers: 1}, {Name: "b", Workers: 1}},
		MultiConfig{Energy: []PoolPower{{Busy: 1, Idle: 1}}})
}
