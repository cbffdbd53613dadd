package main

import (
	"math"
	"sort"
)

// minBeyond is the number of samples that must lie beyond a reported
// tail percentile.
const minBeyond = 10

// rank returns the nearest-rank index of quantile q in n sorted samples.
func rank(q float64, n int) int {
	i := int(math.Ceil(q*float64(n))) - 1
	return max(0, min(i, n-1))
}

// quantile returns the nearest-rank quantile q of xs (xs is not
// modified).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank(q, len(s))]
}

// tailQuantile is quantile for a tail percentile: ok is false unless at
// least minBeyond samples lie beyond the quantile's rank.
func tailQuantile(xs []float64, q float64) (v float64, ok bool) {
	n := len(xs)
	if n == 0 || n-(rank(q, n)+1) < minBeyond {
		return 0, false
	}
	return quantile(xs, q), true
}

// median is the nearest-rank median.
func median(xs []float64) float64 { return quantile(xs, 0.5) }
