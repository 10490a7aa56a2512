package main

import (
	"fmt"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a tail percentile before
// it is reported: fewer make the tail one or two unlucky samples.
const minBeyond = 10

// rank is the 1-based nearest rank of the p-per-mille percentile among n
// samples. Per-mille integers keep the rank exact: 0.99*1000 is not 990 in
// floating point.
func rank(n, perMille int) int {
	return max((perMille*n+999)/1000, 1)
}

// beyond is how many of n samples lie above the p-per-mille percentile.
func beyond(n, perMille int) int { return n - rank(n, perMille) }

// minSamples is the smallest sample count whose p-per-mille percentile has
// minBeyond samples beyond it.
func minSamples(perMille int) int {
	n := 1
	for beyond(n, perMille) < minBeyond {
		n++
	}
	return n
}

// percentile returns the nearest-rank p-per-mille percentile of samples,
// which it sorts in place. It reports an error when fewer than minBeyond
// samples lie beyond the percentile.
func percentile(samples []float64, perMille int) (float64, error) {
	n := len(samples)
	if perMille > 500 && beyond(n, perMille) < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want >= %d",
			float64(perMille)/10, n, beyond(n, perMille), minBeyond)
	}
	if n == 0 {
		return 0, fmt.Errorf("no samples")
	}
	sort.Float64s(samples)
	return samples[rank(n, perMille)-1], nil
}

// median is the p50 of samples, or 0 when there are none. It sorts a copy.
func median(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	v, _ := percentile(s, 500)
	return v
}

// sum adds xs.
func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// tails sets the tail percentiles of op latencies in ms, which a traced
// run reports: the p90 and the p99, each only with minBeyond samples
// beyond it.
func tails(samples []float64, m map[string]float64) error {
	for _, p := range []struct {
		name     string
		perMille int
	}{{"tail.op_ms_p90", 900}, {"tail.op_ms_p99", 990}} {
		v, err := percentile(append([]float64(nil), samples...), p.perMille)
		if err != nil {
			return err
		}
		m[p.name] = v
	}
	return nil
}

// selfTime is the part of [start, end) that none of the child intervals
// cover: a span's duration minus the union of its children, clipped to it.
func selfTime(start, end time.Duration, children [][2]time.Duration) time.Duration {
	ivs := make([][2]time.Duration, 0, len(children))
	for _, c := range children {
		lo, hi := max(c[0], start), min(c[1], end)
		if lo < hi {
			ivs = append(ivs, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	covered := time.Duration(0)
	var cur [2]time.Duration
	for i, iv := range ivs {
		switch {
		case i == 0:
			cur = iv
		case iv[0] <= cur[1]:
			cur[1] = max(cur[1], iv[1])
		default:
			covered += cur[1] - cur[0]
			cur = iv
		}
	}
	if len(ivs) > 0 {
		covered += cur[1] - cur[0]
	}
	return end - start - covered
}
