package main

import (
	"math"
	"sort"
)

// samples is a set of raw measurements. Percentiles are taken exactly from
// the sorted values, never from histogram buckets: interpolating inside a
// bucket reports values no sample had (a p50 batch size of 0.5 on a run
// where every batch held one admission).
type samples []float64

// quantile returns the q-quantile (0 <= q <= 1) by the nearest-rank rule:
// the smallest sample with at least a q share of the samples at or below
// it. It returns NaN for an empty set.
func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	sorted := append(samples(nil), s...)
	sort.Float64s(sorted)
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// beyond counts the samples strictly greater than the q-quantile: a
// percentile is only reported as steady when at least ten lie beyond it.
func (s samples) beyond(q float64) int {
	v := s.quantile(q)
	n := 0
	for _, x := range s {
		if x > v {
			n++
		}
	}
	return n
}

func (s samples) sum() float64 {
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum
}
