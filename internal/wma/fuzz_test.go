package wma

import (
	"math"
	"testing"
)

// The reference rounds below restate each table's update the slow way —
// multiply every weight, renormalize when the maximum has decayed, then
// scan for the lowest-index argmax — so FuzzTableUpdateBest can check
// that the fused UpdateBest agrees with it bit for bit.

// Renormalization branches a reference round can take.
const (
	kept      = iota // no renormalization
	rescaled         // weights divided (scaled) so the maximum is 1 again
	restarted        // every weight had decayed to 0; reset to indifference
)

// refFloatRound is one reference round of the float Table. It reports the
// argmax and the renormalization branch taken.
func refFloatRound(w []float64, beta float64, losses []float64) (best, branch int) {
	for i, l := range losses {
		w[i] *= 1 - (1-beta)*l
	}
	if m := maxFloat(w); m < renormBelow {
		branch = rescaled
		if m <= 0 {
			branch = restarted
		}
		for i := range w {
			if m <= 0 {
				w[i] = 1
			} else {
				w[i] /= m
			}
		}
	}
	return argmaxFloat(w), branch
}

// refFixed8Round is one reference round of the Q8.8 Fixed8Table.
func refFixed8Round(w []uint16, beta8 uint32, losses []float64) (best, branch int) {
	for i, l := range losses {
		factor := 256 - ((256 - beta8) * uint32(math.Round(l*256)) >> 8)
		w[i] = uint16(uint32(w[i]) * factor >> 8)
	}
	m := w[argmaxFixed8(w)]
	if m < fixed8One/4 {
		branch = rescaled
		if m == 0 {
			branch = restarted
		}
		for i := range w {
			if m == 0 {
				w[i] = fixed8One
			} else {
				w[i] = uint16(min(uint32(w[i])*(fixed8One*fixed8One/uint32(m))>>8, math.MaxUint16))
			}
		}
	}
	return argmaxFixed8(w), branch
}

func maxFloat(w []float64) float64 { return w[argmaxFloat(w)] }

func argmaxFloat(w []float64) int {
	best := 0
	for i := range w {
		if w[i] > w[best] {
			best = i
		}
	}
	return best
}

func argmaxFixed8(w []uint16) int {
	best := 0
	for i := range w {
		if w[i] > w[best] {
			best = i
		}
	}
	return best
}

// tied reports whether the maximum of w is attained more than once.
func tied[T float64 | uint16](w []T, best int) bool {
	for i := range w {
		if i != best && w[i] == w[best] {
			return true
		}
	}
	return false
}

// updateBestCase decodes a fuzz input into a table size, β and a loss
// schedule. Losses are quantized to k/255, so equal input bytes give
// exactly equal losses, and β to j/256 so both tables share it exactly.
type updateBestCase struct {
	n, rounds int
	beta      float64
	data      []byte
}

func newUpdateBestCase(n, betaByte uint8, rounds uint16, data []byte) updateBestCase {
	if len(data) == 0 {
		data = []byte{0}
	}
	return updateBestCase{
		n:      1 + int(n)%40,
		rounds: 1 + int(rounds)%1500,
		beta:   float64(1+int(betaByte)%254) / 256,
		data:   data,
	}
}

// losses fills buf with round r's losses.
func (c updateBestCase) losses(r int, buf []float64) {
	for i := range buf {
		buf[i] = float64(c.data[(r*c.n+i)%len(c.data)]) / 255
	}
}

// branchCounts tallies the reference rounds by renormalization branch and
// those that ended in a tie for the maximum weight.
type branchCounts struct{ rescales, restarts, ties int }

// check runs both tables through c against the reference, failing t on the
// first disagreement in the returned index or any weight bit.
func (c updateBestCase) check(t *testing.T) (fl, fx branchCounts) {
	tab, tab8 := New(c.n, c.beta), NewFixed8(c.n, c.beta)
	ref := make([]float64, c.n)
	ref8 := make([]uint16, c.n)
	for i := range ref {
		ref[i], ref8[i] = 1, fixed8One
	}
	buf := make([]float64, c.n)
	for r := 0; r < c.rounds; r++ {
		c.losses(r, buf)

		want, branch := refFloatRound(ref, c.beta, buf)
		if got := tab.UpdateBest(buf); got != want {
			t.Fatalf("round %d: Table.UpdateBest = %d, reference %d", r, got, want)
		}
		for i, w := range ref {
			if math.Float64bits(tab.weights[i]) != math.Float64bits(w) {
				t.Fatalf("round %d: Table weight %d = %v, reference %v", r, i, tab.weights[i], w)
			}
		}
		fl.add(branch, tied(ref, want))

		want, branch = refFixed8Round(ref8, tab8.beta8, buf)
		if got := tab8.UpdateBest(buf); got != want {
			t.Fatalf("round %d: Fixed8Table.UpdateBest = %d, reference %d", r, got, want)
		}
		for i, w := range ref8 {
			if tab8.weights[i] != w {
				t.Fatalf("round %d: Fixed8Table weight %d = %d, reference %d", r, i, tab8.weights[i], w)
			}
		}
		fx.add(branch, tied(ref8, want))
	}
	return fl, fx
}

func (b *branchCounts) add(branch int, tie bool) {
	switch branch {
	case rescaled:
		b.rescales++
	case restarted:
		b.restarts++
	}
	if tie {
		b.ties++
	}
}

// updateBestSeeds reach every reachable branch of both tables: all-equal
// losses (permanent ties), heavy losses under a small β (renormalization),
// a fixed-table round that rounds every weight to zero (restart), and mixed
// byte patterns. The float table cannot restart: its maximum stays above
// renormBelow·β after every round.
var updateBestSeeds = []struct {
	n, beta uint8
	rounds  uint16
	data    []byte
}{
	{36, 50, 200, []byte{128}},
	{36, 0, 300, []byte{255}},
	{6, 0, 300, []byte{255, 254, 255, 255, 255, 255}},
	{5, 10, 900, []byte{250, 255, 251, 255, 252}},
	{36, 50, 400, []byte{0, 37, 255, 128, 37, 0, 200, 201}},
	{3, 200, 50, []byte{1, 2, 3, 4, 5, 6, 7}},
	{0, 0, 10, []byte{253, 255}},
}

// TestUpdateBestSeedsCoverBranches pins that the fuzz seeds exercise every
// reachable renormalization branch and exact ties on both tables; plain
// `go test` runs the differential check on them.
func TestUpdateBestSeedsCoverBranches(t *testing.T) {
	var fl, fx branchCounts
	for _, s := range updateBestSeeds {
		a, b := newUpdateBestCase(s.n, s.beta, s.rounds, s.data).check(t)
		fl.rescales, fl.ties = fl.rescales+a.rescales, fl.ties+a.ties
		fx.rescales, fx.restarts, fx.ties = fx.rescales+b.rescales, fx.restarts+b.restarts, fx.ties+b.ties
	}
	if fl.rescales == 0 || fl.ties == 0 || fx.rescales == 0 || fx.restarts == 0 || fx.ties == 0 {
		t.Fatalf("seeds miss a branch: float %+v, fixed8 %+v", fl, fx)
	}
}

// FuzzTableUpdateBest checks UpdateBest on Table and Fixed8Table against
// the reference multiply-then-scan rounds above: the same index every
// round and bit-identical weights.
func FuzzTableUpdateBest(f *testing.F) {
	for _, s := range updateBestSeeds {
		f.Add(s.n, s.beta, s.rounds, s.data)
	}
	f.Fuzz(func(t *testing.T, n, beta uint8, rounds uint16, data []byte) {
		newUpdateBestCase(n, beta, rounds, data).check(t)
	})
}
