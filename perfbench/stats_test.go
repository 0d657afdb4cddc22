package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileRule(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{0, 0},
		{19, 0},
		{20, 50},
		{99, 50},
		{100, 90},
		{999, 90},
		{1000, 99},
		{9999, 99},
		{10000, 99.9},
		{100000, 99.99},
	} {
		if got := tailPercentile(tc.n); got != tc.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", tc.n, got, tc.want)
		}
		// At the reported percentile at least ten samples lie beyond it;
		// at the next rung fewer would.
		if p := tailPercentile(tc.n); p > 0 && tc.n-rank(tc.n, p) < 10 {
			t.Errorf("n=%d: p%v has fewer than ten samples beyond it", tc.n, p)
		}
	}
	if supports(999, 99) || !supports(1000, 99) {
		t.Errorf("p99 needs exactly 1000 samples")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	s := make([]float64, 1000)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 500}, {99, 990}, {99.9, 999}, {100, 1000}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("p%v = %v, want %v", tc.p, got, tc.want)
		}
	}
	// Ten samples beyond p99 of 1000: the ten largest.
	beyond := 0
	for _, v := range s {
		if v > percentile(s, 99) {
			beyond++
		}
	}
	if beyond != 10 {
		t.Errorf("%d samples beyond p99, want 10", beyond)
	}
	if percentile(nil, 50) != 0 {
		t.Errorf("empty sample")
	}
}

func TestHistogramQuantile(t *testing.T) {
	before := promText{}
	after := promText{
		`h_bucket{le="0.001"}`: 50,
		`h_bucket{le="0.002"}`: 100,
		`h_bucket{le="+Inf"}`:  100,
		`h_sum`:                0.1,
		`h_count`:              100,
	}
	h := histogramDelta(before, after, "h")
	if got := h.quantile(0.5); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("median %v, want 0.001", got)
	}
	if got := h.quantile(0.75); math.Abs(got-0.0015) > 1e-12 {
		t.Errorf("p75 %v, want 0.0015", got)
	}
	if got := h.mean(); math.Abs(got-0.001) > 1e-12 {
		t.Errorf("mean %v, want 0.001", got)
	}
}

// A burst of slow reads confined to one of five windows does not move the
// reported p99; the median still covers every read.
func TestReadTimingWindowsIgnoreOneBurst(t *testing.T) {
	var recs []rec
	for i := 0; i < 5000; i++ {
		lat := time.Millisecond
		if i%50 == 0 {
			lat = 5 * time.Millisecond // the regular 2% tail
		}
		if i >= 1000 && i < 1100 {
			lat = 50 * time.Millisecond // a burst inside window 2
		}
		recs = append(recs, rec{kind: opTopK, lat: lat, done: time.Duration(i) * time.Millisecond})
	}
	recs = append(recs, rec{kind: opAddFact, lat: time.Second, done: time.Second}) // writes are not reads
	p50, p99, err := readTiming(recs)
	if err != nil {
		t.Fatal(err)
	}
	if p50 != 1 || p99 != 5 {
		t.Errorf("p50 %v ms, p99 %v ms; want 1 and 5", p50, p99)
	}
	if _, _, err := readTiming(recs[:999]); err == nil {
		t.Error("999 reads accepted for p99")
	}
}

// qps is the median of the per-window answered rates: one window slowed
// down by machine noise does not move it, and failed operations and those
// answered after the timed phase do not count.
func TestAnsweredRateIsWindowMedian(t *testing.T) {
	const dur = 5 * time.Second
	var recs []rec
	for w, gap := range []time.Duration{10, 10, 100, 10, 10} {
		gap *= time.Millisecond
		for t := time.Duration(0); t < time.Second; t += gap {
			recs = append(recs, rec{done: time.Duration(w)*time.Second + t})
		}
	}
	recs = append(recs, rec{done: time.Second / 2, failed: true}, rec{done: dur + time.Millisecond})
	if got := answeredRate(recs, dur); math.Abs(got-100) > 1e-9 {
		t.Errorf("answeredRate = %v, want 100", got)
	}
}
