package main

import (
	"math"
	"sort"
)

// summary is how a metric's repetitions are reported: the median, with
// the quartiles, extremes and sample count beside it.
type summary struct {
	Median, Q1, Q3, Min, Max float64
	N                        int
}

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the spreads the README reports are the ones the driver computes.
// A single value is its own quartiles.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func summarize(xs []float64) summary {
	if len(xs) == 0 {
		return summary{}
	}
	q1, q2, q3 := quartiles(xs)
	lo, hi := xs[0], xs[0]
	for _, x := range xs {
		lo = math.Min(lo, x)
		hi = math.Max(hi, x)
	}
	return summary{Median: q2, Q1: q1, Q3: q3, Min: lo, Max: hi, N: len(xs)}
}

func median(xs []float64) float64 {
	_, q2, _ := quartiles(xs)
	return q2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// tailPercentiles are the percentiles a latency may be reported at,
// ascending.
var tailPercentiles = []float64{50, 90, 95, 99, 99.9}

// highestPercentile returns the highest of tailPercentiles that still
// has at least ten of n samples beyond it: above that the figure is set
// by a handful of samples and does not repeat. With 300 samples it is
// p95 (15 beyond; p99 would have 3).
func highestPercentile(n int) float64 {
	best := tailPercentiles[0]
	for _, p := range tailPercentiles {
		if float64(n)*(100-p) >= 1000-1e-6 { // n*(1-p/100) >= 10, in a form that rounds less
			best = p
		}
	}
	return best
}
