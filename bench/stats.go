package main

import (
	"math"
	"sort"
)

// sorted returns a sorted copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// quantile returns the q-quantile (0 < q < 1) of xs by the "exclusive"
// rule of Python's statistics.quantiles: position q·(n+1) in the sorted
// sample, interpolated linearly between its neighbours, and extrapolated
// from the first or last pair when it falls outside the sample. The
// spreads this tool prints therefore match the ones an acceptance check
// computes with statistics.quantiles(values, n=4). It returns 0 for an
// empty sample.
func quantile(xs []float64, q float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0
	case 1:
		return s[0]
	}
	pos := q * float64(n+1) // 1-based
	j := int(math.Floor(pos))
	j = max(1, min(j, n-1))
	frac := pos - float64(j)
	return s[j-1] + frac*(s[j]-s[j-1])
}

// median returns the middle of xs (the mean of the two middle points of
// an even-sized sample), 0 for an empty sample.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first quartile, the median and the third
// quartile of xs.
func quartiles(xs []float64) (q1, med, q3 float64) {
	return quantile(xs, 0.25), median(xs), quantile(xs, 0.75)
}

// tailPercentile returns the q-quantile of xs and whether at least ten
// samples lie beyond it. Below that a tail percentile is one or two
// samples' worth of noise, so callers flag it instead of trusting it.
func tailPercentile(xs []float64, q float64) (v float64, ok bool) {
	return quantile(xs, q), float64(len(xs))*(1-q) >= 10-1e-9 // 1-q is inexact for q = 0.9
}

// geomean returns the geometric mean of xs, which must be positive (0
// for an empty sample).
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// spread returns the interquartile range of xs as a share of its median
// (0 when the median is 0).
func spread(xs []float64) float64 {
	q1, med, q3 := quartiles(xs)
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}
