package kernels

import (
	"math"
	"testing"
	"testing/quick"
)

// runChunked drives a kernel to completion splitting every iteration into
// nChunks sequential chunks — the chunked-but-serial reference path used
// to prove split-invariance.
func runChunked(k Kernel, nChunks int) int {
	iters := 0
	for {
		n := k.Items()
		var partials []any
		if n > 0 {
			per := (n + nChunks - 1) / nChunks
			for lo := 0; lo < n; lo += per {
				hi := lo + per
				if hi > n {
					hi = n
				}
				partials = append(partials, k.Chunk(lo, hi))
			}
		}
		iters++
		if !k.EndIteration(partials) {
			return iters
		}
	}
}

func TestRunSerialCountsIterations(t *testing.T) {
	h := NewHotspot(16, 16, 5, 1)
	if got := RunSerial(h); got != 5 {
		t.Errorf("RunSerial = %d iterations, want 5", got)
	}
	if h.Step() != 5 {
		t.Errorf("Step = %d", h.Step())
	}
}

func TestChunkRangeChecks(t *testing.T) {
	h := NewHotspot(8, 8, 1, 1)
	for _, r := range [][2]int{{-1, 4}, {0, 9}, {5, 3}} {
		r := r
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("chunk [%d,%d) did not panic", r[0], r[1])
				}
			}()
			h.Chunk(r[0], r[1])
		}()
	}
}

// --- kmeans ---

func TestKMeansConverges(t *testing.T) {
	km := NewKMeans(600, 4, 3, 50, 7)
	initial := km.Cost()
	iters := RunSerial(km)
	if iters >= 50 {
		t.Errorf("kmeans did not converge before the iteration budget (%d)", iters)
	}
	if iters < 3 {
		t.Errorf("kmeans converged in %d iterations — the synthetic data is degenerate for a division demo", iters)
	}
	// Lloyd must improve substantially over the first-k-points init.
	if got := km.Cost(); got > 0.8*initial {
		t.Errorf("inertia barely improved: %v -> %v", initial, got)
	}
}

func TestKMeansChunkInvariance(t *testing.T) {
	a := NewKMeans(500, 5, 2, 20, 11)
	b := NewKMeans(500, 5, 2, 20, 11)
	RunSerial(a)
	runChunked(b, 7)
	ca, cb := a.Centroids(), b.Centroids()
	for i := range ca {
		if math.Abs(ca[i]-cb[i]) > 1e-9 {
			t.Fatalf("centroid %d differs between serial and chunked: %v vs %v", i, ca[i], cb[i])
		}
	}
}

func TestKMeansCostDecreasesMonotonically(t *testing.T) {
	km := NewKMeans(400, 4, 2, 30, 3)
	prev := math.Inf(1)
	for {
		more := km.EndIteration([]any{km.Chunk(0, km.Items())})
		c := km.Cost()
		if c > prev+1e-6 {
			t.Fatalf("inertia rose at iteration %d: %v -> %v", km.Iteration(), prev, c)
		}
		prev = c
		if !more {
			break
		}
	}
}

func TestKMeansBadShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewKMeans(3, 5, 2, 10, 1) // k > n
}

// --- hotspot ---

func TestHotspotHeatsUp(t *testing.T) {
	h := NewHotspot(32, 32, 100, 5)
	start := h.MeanTemperature()
	RunSerial(h)
	if h.MeanTemperature() <= start {
		t.Errorf("powered grid did not heat: %v -> %v", start, h.MeanTemperature())
	}
	if h.MaxTemperature() > 1000 {
		t.Errorf("temperature diverged: %v", h.MaxTemperature())
	}
}

func TestHotspotChunkInvariance(t *testing.T) {
	a := NewHotspot(24, 24, 20, 9)
	b := NewHotspot(24, 24, 20, 9)
	RunSerial(a)
	runChunked(b, 5)
	for r := 0; r < 24; r++ {
		for c := 0; c < 24; c++ {
			if math.Abs(a.Temperature(r, c)-b.Temperature(r, c)) > 1e-12 {
				t.Fatalf("temperature (%d,%d) differs", r, c)
			}
		}
	}
}

func TestHotspotUnpoweredStaysAmbient(t *testing.T) {
	h := NewHotspot(16, 16, 10, 1)
	for i := range h.power {
		h.power[i] = 0
	}
	RunSerial(h)
	if math.Abs(h.MeanTemperature()-h.ambient) > 1e-9 {
		t.Errorf("unpowered grid drifted from ambient: %v", h.MeanTemperature())
	}
}

// --- bfs ---

func TestBFSMatchesReference(t *testing.T) {
	b := NewBFS(2000, 3, 31)
	RunSerial(b)
	want := b.ReferenceDistances()
	for v := 0; v < 2000; v++ {
		if int32(b.Distance(v)) != want[v] {
			t.Fatalf("distance(%d) = %d, want %d", v, b.Distance(v), want[v])
		}
	}
	if b.Reached() != 2000 {
		t.Errorf("reached %d of 2000 (graph has a connectivity ring)", b.Reached())
	}
}

func TestBFSChunkedMatchesReference(t *testing.T) {
	b := NewBFS(1500, 2, 37)
	runChunked(b, 4)
	want := b.ReferenceDistances()
	for v := 0; v < 1500; v++ {
		if int32(b.Distance(v)) != want[v] {
			t.Fatalf("chunked distance(%d) = %d, want %d", v, b.Distance(v), want[v])
		}
	}
}

func TestBFSFrontierShrinksToZero(t *testing.T) {
	b := NewBFS(500, 2, 41)
	for b.EndIteration([]any{b.Chunk(0, b.Items())}) {
		if b.Level() > 500 {
			t.Fatal("bfs did not terminate")
		}
	}
	if b.Items() != 0 {
		t.Errorf("frontier not empty at end: %d", b.Items())
	}
}

// --- srad ---

func TestSRADReducesSpeckle(t *testing.T) {
	s := NewSRAD(48, 48, 30, 59)
	before := s.Variation()
	RunSerial(s)
	after := s.Variation()
	if after >= before {
		t.Errorf("diffusion did not reduce variation: %v -> %v", before, after)
	}
	if s.Step() != 30 {
		t.Errorf("steps = %d, want 30", s.Step())
	}
}

func TestSRADChunkInvariance(t *testing.T) {
	a := NewSRAD(30, 30, 10, 61)
	b := NewSRAD(30, 30, 10, 61)
	RunSerial(a)
	runChunked(b, 4)
	for r := 0; r < 30; r++ {
		for c := 0; c < 30; c++ {
			if math.Abs(a.Pixel(r, c)-b.Pixel(r, c)) > 1e-12 {
				t.Fatalf("pixel (%d,%d) differs", r, c)
			}
		}
	}
}

// --- pathfinder ---

func TestPathFinderMatchesReference(t *testing.T) {
	p := NewPathFinder(200, 400, 67)
	RunSerial(p)
	if got, want := p.BestCost(), p.ReferenceBestCost(); got != want {
		t.Errorf("BestCost = %d, want %d", got, want)
	}
}

func TestPathFinderChunkInvariance(t *testing.T) {
	a := NewPathFinder(100, 300, 71)
	b := NewPathFinder(100, 300, 71)
	RunSerial(a)
	runChunked(b, 6)
	if a.BestCost() != b.BestCost() {
		t.Errorf("chunked best cost %d != serial %d", b.BestCost(), a.BestCost())
	}
}

// Property: every kernel produces identical results no matter how its
// iterations are chunked.
func TestChunkInvarianceProperty(t *testing.T) {
	f := func(chunksSeed uint8, seed uint16) bool {
		nChunks := int(chunksSeed)%8 + 1
		s := uint64(seed) + 1
		a := NewKMeans(200, 3, 2, 10, s)
		b := NewKMeans(200, 3, 2, 10, s)
		RunSerial(a)
		runChunked(b, nChunks)
		ca, cb := a.Centroids(), b.Centroids()
		for i := range ca {
			if math.Abs(ca[i]-cb[i]) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: pathfinder's chunked DP equals the reference for random
// shapes.
func TestPathFinderProperty(t *testing.T) {
	f := func(r, c uint8, seed uint16) bool {
		rows := int(r)%40 + 2
		cols := int(c)%60 + 2
		p := NewPathFinder(rows, cols, uint64(seed))
		runChunked(p, 3)
		return p.BestCost() == p.ReferenceBestCost()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestSplitMix64Deterministic(t *testing.T) {
	a, b := newSplitMix64(99), newSplitMix64(99)
	for i := 0; i < 100; i++ {
		if a.next() != b.next() {
			t.Fatal("splitmix64 not deterministic")
		}
	}
	c := newSplitMix64(100)
	same := true
	a = newSplitMix64(99)
	for i := 0; i < 10; i++ {
		if a.next() != c.next() {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical streams")
	}
	if v := a.float64(); v < 0 || v >= 1 {
		t.Errorf("float64 out of range: %v", v)
	}
	defer func() {
		if recover() == nil {
			t.Error("intn(0) did not panic")
		}
	}()
	a.intn(0)
}
