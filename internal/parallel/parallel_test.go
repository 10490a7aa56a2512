package parallel

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestMapOrderedResults(t *testing.T) {
	items := make([]int, 100)
	for i := range items {
		items[i] = i
	}
	for _, workers := range []int{1, 2, 7, 100} {
		got, err := Map(context.Background(), items, func(_ context.Context, i, v int) (int, error) {
			return v * v, nil
		}, Workers(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: got[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestMapEmpty(t *testing.T) {
	got, err := Map(context.Background(), nil, func(_ context.Context, i, v int) (int, error) {
		t.Fatal("fn called on empty input")
		return 0, nil
	})
	if err != nil || got != nil {
		t.Fatalf("empty map: got %v, %v", got, err)
	}
}

func TestMapFirstErrorByIndex(t *testing.T) {
	// Several tasks fail; the returned error must always be the one from
	// the lowest failing index, not whichever failed first in time.
	items := make([]int, 64)
	for range [20]int{} {
		_, err := Map(context.Background(), items, func(_ context.Context, i, _ int) (int, error) {
			switch i {
			case 5:
				time.Sleep(2 * time.Millisecond) // deliberately the slowest failure
				return 0, errors.New("error at 5")
			case 6, 40:
				return 0, fmt.Errorf("error at %d", i)
			}
			return i, nil
		}, Workers(8))
		if err == nil || err.Error() != "error at 5" {
			t.Fatalf("got %v, want error at 5", err)
		}
	}
}

func TestMapCancelsAfterFailure(t *testing.T) {
	var started atomic.Int64
	items := make([]int, 1000)
	_, err := Map(context.Background(), items, func(ctx context.Context, i, _ int) (int, error) {
		started.Add(1)
		if i == 0 {
			return 0, errors.New("boom")
		}
		select {
		case <-ctx.Done():
		case <-time.After(50 * time.Millisecond):
		}
		return 0, nil
	}, Workers(4))
	if err == nil {
		t.Fatal("want error")
	}
	if n := started.Load(); n == 1000 {
		t.Error("no task was skipped after the failure")
	}
}

func TestMapParentCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Map(ctx, []int{1, 2, 3}, func(ctx context.Context, i, v int) (int, error) {
		return v, ctx.Err()
	}, Workers(2))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
	// Sequential path too.
	_, err = Map(ctx, []int{1, 2, 3}, func(ctx context.Context, i, v int) (int, error) {
		return v, nil
	}, Workers(1))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("sequential: got %v, want context.Canceled", err)
	}
}

func TestMapBoundsWorkers(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	items := make([]int, 50)
	_, err := Map(context.Background(), items, func(_ context.Context, i, _ int) (int, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		cur.Add(-1)
		return 0, nil
	}, Workers(workers))
	if err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("peak concurrency %d exceeds %d workers", p, workers)
	}
}

func TestMapProgress(t *testing.T) {
	var mu sync.Mutex
	var seen []int
	items := make([]int, 20)
	_, err := Map(context.Background(), items, func(_ context.Context, i, _ int) (int, error) {
		return i, nil
	}, Workers(4), OnProgress(func(done, total int) {
		if total != 20 {
			t.Errorf("total = %d, want 20", total)
		}
		mu.Lock()
		seen = append(seen, done)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != 20 {
		t.Fatalf("got %d progress calls, want 20", len(seen))
	}
	for i, d := range seen {
		if d != i+1 {
			t.Fatalf("progress out of order: call %d reported done=%d", i, d)
		}
	}
}

func TestTaskSeedStableAndDistinct(t *testing.T) {
	a := TaskSeed(42, 0)
	if a != TaskSeed(42, 0) {
		t.Error("TaskSeed not stable")
	}
	seen := map[uint64]bool{}
	for i := 0; i < 1000; i++ {
		s := TaskSeed(42, i)
		if seen[s] {
			t.Fatalf("seed collision at index %d", i)
		}
		seen[s] = true
	}
	if TaskSeed(42, 1) == TaskSeed(43, 1) {
		t.Error("base seed ignored")
	}
}

func TestTaskRandIndependentOfOrder(t *testing.T) {
	// Drawing from task 5's stream must not depend on whether other tasks
	// drew first.
	first := TaskRand(7, 5).Float64()
	TaskRand(7, 3).Float64()
	TaskRand(7, 4).Float64()
	if got := TaskRand(7, 5).Float64(); got != first {
		t.Errorf("task stream depends on other tasks: %v vs %v", got, first)
	}
}

func TestUniformRangeAndMoments(t *testing.T) {
	const n = 100000
	var sum float64
	for k := uint64(0); k < n; k++ {
		u := Uniform(123, k)
		if u < 0 || u >= 1 {
			t.Fatalf("Uniform out of range: %v", u)
		}
		sum += u
	}
	if mean := sum / n; math.Abs(mean-0.5) > 0.01 {
		t.Errorf("mean %v far from 0.5", mean)
	}
	if Uniform(1, 0) == Uniform(2, 0) {
		t.Error("Uniform ignores seed")
	}
	if Uniform(1, 0) != Uniform(1, 0) {
		t.Error("Uniform not stable")
	}
}

func TestPickRangeAndDistribution(t *testing.T) {
	const n, choices = 60000, 7
	counts := make([]int, choices)
	for k := uint64(0); k < n; k++ {
		i := Pick(99, k, choices)
		if i < 0 || i >= choices {
			t.Fatalf("Pick out of range: %d", i)
		}
		counts[i]++
	}
	// Each choice should land near n/choices; a 15% band catches a biased
	// or collapsed mapping without flaking on a fixed seed.
	want := float64(n) / choices
	for i, c := range counts {
		if math.Abs(float64(c)-want) > 0.15*want {
			t.Errorf("choice %d drawn %d times, want ~%.0f", i, c, want)
		}
	}
	if Pick(1, 0, 5) != Pick(1, 0, 5) {
		t.Error("Pick not stable")
	}
	if Pick(1, 0, 1) != 0 {
		t.Error("single-choice Pick must return 0")
	}
	defer func() {
		if recover() == nil {
			t.Error("Pick(seed, k, 0) did not panic")
		}
	}()
	Pick(1, 0, 0)
}
