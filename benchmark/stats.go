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

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between the two closest ranks. It returns NaN for an empty
// sample, so a metric that was never measured cannot pass for a fast one.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), because that
// is the rule the acceptance procedure applies to ten runs of this benchmark.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(k*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// iqrShare is the distance between the quartiles as a share of the median.
func iqrShare(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(median(xs))
}

// tailSupported reports whether a sample of n has at least ten samples beyond
// its p-th percentile — the rule for which tail a timing may be reported at.
func tailSupported(n int, p float64) bool {
	// 1e-9 absorbs the rounding of 100-p (100-99.9 is not exactly 0.1).
	return float64(n)*(100-p) >= 1000-1e-9
}

// highestTail returns the highest of 90, 99 and 99.9 that n samples support,
// or 50 when none is.
func highestTail(n int) float64 {
	best := 50.0
	for _, p := range []float64{90, 99, 99.9} {
		if tailSupported(n, p) {
			best = p
		}
	}
	return best
}
