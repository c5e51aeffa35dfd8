package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a reported percentile for
// it to be an estimate rather than an outlier: the "p99" of 750 samples is
// reported at the rank that still leaves ten above it (≈ p98.7).
const minBeyond = 10

// percentile returns the p-quantile (0 < p <= 1) of an ascending slice by
// nearest rank, clamped so at least minBeyond samples lie beyond it. With
// too few samples for any clamp (n <= 2*minBeyond) it degrades to the
// median, the only rank such a sample supports; p = 0.5 is always the
// median proper. An empty slice reads 0.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n <= 2*minBeyond || p == 0.5 {
		return median(sorted)
	}
	rank := int(math.Ceil(p*float64(n))) - 1
	if hi := n - 1 - minBeyond; rank > hi {
		rank = hi
	}
	if rank < 0 {
		rank = 0
	}
	return sorted[rank]
}

// median of an ascending slice: the middle sample, or the mean of the two
// middle ones.
func median(sorted []float64) float64 {
	n := len(sorted)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return sorted[n/2]
	}
	return (sorted[n/2-1] + sorted[n/2]) / 2
}

func sortedCopy(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// medianOf is the median of an unsorted slice: the median-of-epochs
// estimator every timing metric goes through.
func medianOf(v []float64) float64 { return median(sortedCopy(v)) }

// epochPercentiles reduces per-epoch samples to one number: the given
// percentile of each epoch on its own, then the median of those. A single
// slow epoch moves a pooled p99 but not the median of per-epoch p99s.
func epochPercentiles(epochs [][]float64, p float64) float64 {
	per := make([]float64, 0, len(epochs))
	for _, e := range epochs {
		if len(e) > 0 {
			per = append(per, percentile(sortedCopy(e), p))
		}
	}
	return medianOf(per)
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
