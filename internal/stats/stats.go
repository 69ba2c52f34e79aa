// Package stats provides the aggregations the paper reports: geometric
// means, medians, means with standard error, and ratio helpers.
package stats

import (
	"math"
	"sort"
)

// Geomean returns the geometric mean of xs (ignoring non-positive values).
func Geomean(xs []float64) float64 {
	sum := 0.0
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

// Median returns the median of xs.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// Mean returns the arithmetic mean.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Max returns the maximum of xs (0 when empty).
func Max(xs []float64) float64 {
	best := 0.0
	for i, x := range xs {
		if i == 0 || x > best {
			best = x
		}
	}
	return best
}

// Min returns the minimum of xs (0 when empty).
func Min(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	best := xs[0]
	for _, x := range xs {
		if x < best {
			best = x
		}
	}
	return best
}
