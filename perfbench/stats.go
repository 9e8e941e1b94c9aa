package main

import (
	"math"
	"sort"
)

// Latency samples are milliseconds. A failed operation is recorded as
// +Inf: it misses every latency limit, so it sorts above every
// completed operation instead of being dropped from the figures.

// quantile returns the p-quantile (0 < p < 1) of sorted by the
// nearest-rank rule: the smallest sample with at least p of the
// samples at or below it. It returns NaN for an empty slice.
func quantile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p*float64(len(sorted)))) - 1
	if rank < 0 {
		rank = 0
	}
	if rank >= len(sorted) {
		rank = len(sorted) - 1
	}
	return sorted[rank]
}

// minBeyond is how many samples must lie above a reported tail
// percentile for it to be more than one or two outliers.
const minBeyond = 10

// supported reports whether n samples leave at least minBeyond
// samples above the p-quantile.
func supported(n int, p float64) bool {
	return float64(n)-math.Ceil(p*float64(n)) >= minBeyond
}

// tailQuantile picks the highest of the standard tail percentiles that
// n samples support, or 0 when even p90 is unsupported.
func tailQuantile(n int) float64 {
	for _, p := range []float64{0.999, 0.99, 0.95, 0.90} {
		if supported(n, p) {
			return p
		}
	}
	return 0
}

// sortedCopy returns the samples in ascending order.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median is the 0.5 nearest-rank quantile of unsorted samples.
func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }
