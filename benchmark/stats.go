package main

import (
	"math"
	"slices"
	"time"
)

// percentile returns the nearest-rank q-quantile (0 < q <= 1) of sorted: the
// smallest value with at least a share q of the samples at or below it.
// It is a value that was observed, never an interpolation.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(rank, len(sorted)-1))]
}

func sortedMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	slices.Sort(out)
	return out
}

// p50MS is the median of ds in milliseconds, or 0 when there are none.
func p50MS(ds []time.Duration) float64 {
	if len(ds) == 0 {
		return 0
	}
	return percentile(sortedMS(ds), 0.5)
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	return percentile(s, 0.5)
}

func mean(vs []float64) float64 {
	if len(vs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range vs {
		sum += v
	}
	return sum / float64(len(vs))
}
