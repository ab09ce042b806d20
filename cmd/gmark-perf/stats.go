package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the two middle values
// for an even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first, second and third quartile of xs with the
// "exclusive" method Python's statistics.quantiles(values, n=4) uses —
// the one the acceptance check applies — so a spread computed here is
// the spread the driver will compute. It needs at least two values.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	at := func(i int) float64 {
		// Position i*(n+1)/4 on a 1-based axis, clamped like Python's.
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1)) - float64(j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// spread is the interquartile range of xs as a share of its median:
// the steadiness figure every end-to-end metric is held to.
func spread(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs(q3-q1) / math.Abs(q2)
}

// minBeyond is how many samples must lie beyond a reported percentile:
// with fewer, the figure is one outlier's latency, not a percentile.
const minBeyond = 10

// percentile returns the p-th percentile (0 < p < 100) of xs by the
// nearest-rank method.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// highPercentile returns the highest of p99, p95, p90 that still has at
// least minBeyond samples above it, with the percentile actually used;
// with too few samples for any of them it falls back to the median
// (p = 50), so the caller can print which one it got.
func highPercentile(xs []float64) (value float64, p float64) {
	for _, p := range []float64{99, 95, 90} {
		beyond := len(xs) - int(math.Ceil(p/100*float64(len(xs))))
		if beyond >= minBeyond {
			return percentile(xs, p), p
		}
	}
	return median(xs), 50
}
