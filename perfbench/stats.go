package main

import (
	"math"
	"sort"
)

// minBeyond is the percentile rule: a percentile is reported only when at
// least this many samples lie beyond it, so a tail figure never rests on
// a handful of outliers.
const minBeyond = 10

// rank is the 1-based nearest rank of the p-th percentile (p in percent)
// of n samples. The epsilon keeps float error in p*n from pushing an
// exact rank (99.9% of 10000) up by one.
func rank(n int, p float64) int {
	r := int(math.Ceil(p*float64(n)/100 - 1e-9))
	return min(max(r, 1), n)
}

// percentileOK reports whether p (in percent) has at least minBeyond of n
// samples beyond it.
func percentileOK(n int, p float64) bool {
	return n > 0 && n-rank(n, p) >= minBeyond
}

// highestPercentile returns the highest of the candidate percentiles that
// satisfies the rule for n samples, or 0 when none does.
func highestPercentile(n int, candidates ...float64) float64 {
	best := 0.0
	for _, p := range candidates {
		if p > best && percentileOK(n, p) {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile (p in percent) of
// sorted samples.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rank(len(sorted), p)-1]
}

// median sorts a copy of xs and returns its middle value (mean of the two
// middle values for an even count).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

// sortedCopy returns xs sorted ascending without touching xs.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio divides, returning 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
