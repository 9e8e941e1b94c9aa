package main

import (
	"math"
	"testing"
)

func TestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		p    float64
		want bool
	}{
		{100, 0.90, true}, {99, 0.90, false},
		{1000, 0.99, true}, {999, 0.99, false},
		{200, 0.95, true}, {199, 0.95, false},
	} {
		if got := supported(c.n, c.p); got != c.want {
			t.Errorf("supported(%d, %v) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	for n, want := range map[int]float64{50: 0, 150: 0.90, 200: 0.95, 999: 0.95, 1000: 0.99, 10000: 0.999} {
		if got := tailQuantile(n); got != want {
			t.Errorf("tailQuantile(%d) = %v, want %v", n, got, want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	s := sortedCopy(xs)
	for p, want := range map[float64]float64{0.5: 50, 0.9: 90, 0.99: 99, 0.01: 1, 1: 100} {
		if got := quantile(s, p); got != want {
			t.Errorf("quantile(%v) = %v, want %v", p, got, want)
		}
	}
	if !math.IsNaN(quantile(nil, 0.5)) {
		t.Error("quantile of no samples should be NaN")
	}
}

func TestFailedOpsMissEveryLimit(t *testing.T) {
	// Ten of 100 ops failed: they sort above every completed op, so
	// p90 is the slowest completed op and p91 is a failure.
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
		if i >= 90 {
			xs[i] = math.Inf(1)
		}
	}
	s := sortedCopy(xs)
	if got := quantile(s, 0.9); got != 90 {
		t.Errorf("p90 = %v, want 90", got)
	}
	if got := quantile(s, 0.91); !math.IsInf(got, 1) {
		t.Errorf("p91 = %v, want +Inf", got)
	}
}
