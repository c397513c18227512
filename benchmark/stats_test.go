package main

import (
	"math"
	"testing"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-12*math.Max(1, math.Abs(b)) }

func TestPercentileAndMedian(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v, %g) = %g, want %g", xs, c.p, got, c.want)
		}
	}
	if got := median([]float64{4, 1, 3, 2}); !near(got, 2.5) {
		t.Errorf("median of an even sample = %g, want 2.5", got)
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of nothing = %g, want NaN", got)
	}
	if xs[0] != 5 {
		t.Errorf("percentile reordered its input: %v", xs)
	}
}

// The expected values are what Python prints for
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 2}, 1, 3},
		{[]float64{1.5, 2.5, 2.75, 3, 10, 11, 12.5}, 2.5, 11},
	}
	for _, c := range cases {
		q1, q3 := quartiles(c.xs)
		if !near(q1, c.q1) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
	if got := iqrShare([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); !near(got, 1) {
		t.Errorf("iqrShare(1..10) = %g, want (8.25-2.75)/5.5 = 1", got)
	}
}

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 90, true}, {99, 90, false}, {1000, 99, true}, {999, 99, false},
		{10000, 99.9, true}, {9999, 99.9, false}, {20, 50, true}, {19, 50, false},
	}
	for _, c := range cases {
		if got := tailSupported(c.n, c.p); got != c.want {
			t.Errorf("tailSupported(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{50, 50}, {100, 90}, {999, 90}, {1000, 99}, {20000, 99.9}} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestWorseByFollowsDirection(t *testing.T) {
	if got := worseBy(100, 110, "lower"); !near(got, 0.10) {
		t.Errorf("a latency that rose 10%% is worse by %g", got)
	}
	if got := worseBy(100, 110, "higher"); !near(got, -0.10) {
		t.Errorf("a throughput that rose 10%% is worse by %g", got)
	}
}
