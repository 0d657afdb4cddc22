package main

import (
	"math"
	"sort"
	"time"
)

// percentileLadder is the set of percentiles a timing may be reported at.
var percentileLadder = []float64{50, 90, 99, 99.9, 99.99, 99.999}

// tailPercentile returns the highest percentile of the ladder that has at
// least ten of n samples beyond it, or 0 when not even the median does.
func tailPercentile(n int) float64 {
	best := 0.0
	for _, p := range percentileLadder {
		if n-rank(n, p) >= 10 {
			best = p
		}
	}
	return best
}

// supports reports whether n samples are enough to report percentile p
// under the ten-samples-beyond rule.
func supports(n int, p float64) bool {
	return p <= tailPercentile(n)
}

// rank is the 1-based nearest rank of percentile p among n samples. The
// small slack keeps float error (99.9/100·1000 = 999.0000000000001) from
// moving it up by one.
func rank(n int, p float64) int {
	return int(math.Ceil(p/100*float64(n) - 1e-9))
}

// percentile returns the nearest-rank p-th percentile of sorted.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := rank(len(sorted), p) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// durations converts latencies to sorted float64 values in the given unit.
func durations(ds []time.Duration, unit time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(unit)
	}
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return percentile(s, 50)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
