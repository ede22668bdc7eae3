package main

import (
	"math"
	"sort"
)

// median returns the median of xs (the mean of the middle pair for even
// lengths), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// nearestRank returns the p-th percentile of xs by the nearest-rank rule:
// the smallest sample with at least p% of the samples at or below it.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	k := int(math.Ceil(p / 100 * float64(len(s))))
	k = min(max(k, 1), len(s))
	return s[k-1]
}

// tail reports the highest whole percentile that still has at least ten
// samples beyond it, and its value. ok is false when fewer than eleven
// samples leave no such percentile.
func tail(xs []float64) (pct int, value float64, ok bool) {
	n := len(xs)
	for p := 99; p >= 1; p-- {
		k := int(math.Ceil(float64(p) / 100 * float64(n)))
		if n-k >= 10 {
			return p, nearestRank(xs, float64(p)), true
		}
	}
	return 0, math.NaN(), false
}
