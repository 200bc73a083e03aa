package main

import (
	"math"
	"sort"
	"time"
)

// pct is one percentile of a latency sample: the value by the
// nearest-rank rule, the sample count it was taken from, and how many
// samples lie above it (the guide for whether a tail percentile rests
// on enough data).
type pct struct {
	Value  float64
	N      int
	Beyond int
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank rule: the smallest sample with at least p% of the
// samples at or below it, i.e. sorted[ceil(p/100*n)-1]. xs need not be
// sorted and is not modified. An empty sample yields the zero pct.
func percentile(xs []float64, p float64) pct {
	n := len(xs)
	if n == 0 {
		return pct{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return pct{Value: s[rank-1], N: n, Beyond: n - rank}
}

// median is the 50th percentile's value.
func median(xs []float64) float64 { return percentile(xs, 50).Value }

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to float microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
