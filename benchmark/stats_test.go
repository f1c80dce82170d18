package main

import (
	"math"
	"testing"
)

func TestQuartilesMatchPythonStatisticsQuantiles(t *testing.T) {
	// Expected values are statistics.quantiles(xs, n=4) and
	// statistics.median(xs) from CPython.
	cases := []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{9, 1, 5, 3, 7, 2, 8, 4, 6}, 2.5, 5, 7.5},
		{[]float64{10, 20}, 7.5, 15, 22.5},
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{4}, 4, 4, 4},
	}
	for _, c := range cases {
		q1, q2, q3 := quartiles(c.xs)
		if q1 != c.q1 || q2 != c.q2 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.xs, q1, q2, q3, c.q1, c.q2, c.q3)
		}
		if m := median(c.xs); m != c.q2 {
			t.Errorf("median(%v) = %v, want %v", c.xs, m, c.q2)
		}
	}
}

func TestSummarizeAndMean(t *testing.T) {
	s := summarize([]float64{4, 1, 3, 2})
	if s.Median != 2.5 || s.Min != 1 || s.Max != 4 || s.N != 4 {
		t.Errorf("summarize = %+v", s)
	}
	if (summarize(nil) != summary{}) {
		t.Error("summarize(nil) is not the zero summary")
	}
	if mean([]float64{1, 2, 6}) != 3 || mean(nil) != 0 {
		t.Error("mean")
	}
}

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted on purpose
	}
	for p, want := range map[float64]float64{50: 50, 95: 95, 99: 99, 100: 100, 0.5: 1} {
		if got := percentile(xs, p); got != want {
			t.Errorf("percentile(p=%v) = %v, want %v", p, got, want)
		}
	}
	if percentile(nil, 50) != 0 {
		t.Error("percentile of nothing")
	}
}

// The highest percentile reported is the highest with at least ten
// samples beyond it.
func TestHighestPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]float64{
		10:     50,
		20:     50,
		99:     50,
		100:    90,
		199:    90,
		200:    95,
		300:    95, // phase B: p99 would have 3 samples beyond it
		999:    95,
		1000:   99,
		10_000: 99.9,
	} {
		got := highestPercentile(n)
		if got != want {
			t.Errorf("highestPercentile(%d) = %v, want %v", n, got, want)
		}
		if beyond := float64(n) * (1 - got/100); got > 50 && beyond < 10-1e-9 {
			t.Errorf("n=%d: p%v has only %v samples beyond it", n, got, beyond)
		}
	}
	if math.IsNaN(highestPercentile(0)) {
		t.Error("no samples")
	}
}
