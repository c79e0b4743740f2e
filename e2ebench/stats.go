package main

import (
	"math"
	"sort"

	"repro/internal/benchkit"
)

// pct is one percentile of a sample set, with the counts that decide
// whether it may be reported: a tail percentile counts only when at
// least minBeyond samples lie above it.
type pct struct {
	Value  float64
	N      int // samples in the set
	Beyond int // samples ranked above the percentile
}

// minBeyond is how many samples a percentile needs beyond it to count.
const minBeyond = 10

// Counts reports whether the percentile has enough samples beyond it.
func (p pct) Counts() bool { return p.Beyond >= minBeyond }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// samples. An empty set yields the zero pct.
func percentile(samples []float64, p float64) pct {
	n := len(samples)
	if n == 0 {
		return pct{}
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(p / 100 * float64(n)))
	rank = min(max(rank, 1), n)
	return pct{Value: sorted[rank-1], N: n, Beyond: n - rank}
}

// median is the median of samples, 0 for an empty set.
func median(samples []float64) float64 { return benchkit.Summarize(samples).Median }
