package main

import (
	"math"
	"testing"
)

func TestQuantileNearestRank(t *testing.T) {
	var s samples
	for i := 100; i >= 1; i-- {
		s = append(s, float64(i))
	}
	for _, c := range []struct{ q, want float64 }{
		{0, 1}, {0.01, 1}, {0.5, 50}, {0.99, 99}, {1, 100},
	} {
		if got := s.quantile(c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if got := s.beyond(0.99); got != 1 {
		t.Errorf("beyond(0.99) = %d, want 1", got)
	}
	if s[0] != 100 {
		t.Error("quantile sorted the caller's samples")
	}
}

// A percentile is always a value some sample had: with every batch of
// size one, p50 is 1, where bucket interpolation reports 0.5.
func TestQuantileIsASample(t *testing.T) {
	s := samples{1, 1, 1, 1, 1}
	for _, q := range []float64{0.5, 0.95, 0.99} {
		if got := s.quantile(q); got != 1 {
			t.Errorf("quantile(%g) of all-ones = %g, want 1", q, got)
		}
	}
	if got := s.beyond(0.5); got != 0 {
		t.Errorf("beyond(0.5) of all-ones = %d, want 0", got)
	}
	if got := (samples{}).quantile(0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %g, want NaN", got)
	}
}

func TestSum(t *testing.T) {
	if got := (samples{1, 2, 3, 6}).sum(); got != 12 {
		t.Errorf("sum = %g, want 12", got)
	}
}
