package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending: percentile must sort
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		name string
		n    int
		q    float64
		want float64
		ok   bool
	}{
		{"p50 of 20", 20, 0.5, 10, true},
		{"p50 of 19 leaves 9 beyond", 19, 0.5, 0, false},
		{"p90 of 100", 100, 0.9, 90, true},
		{"p90 of 99 leaves 9 beyond", 99, 0.9, 0, false},
		{"p99 of 100 is not the maximum", 100, 0.99, 0, false},
		{"p99 of 1000", 1000, 0.99, 990, true},
		{"p99 of 1009", 1009, 0.99, 999, true},
		{"empty", 0, 0.5, 0, false},
		{"q out of range", 100, 0, 0, false},
		{"q above one", 100, 1.5, 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, ok := percentile(seq(tc.n), tc.q)
			if ok != tc.ok || got != tc.want {
				t.Fatalf("percentile(n=%d, q=%v) = %v, %v; want %v, %v", tc.n, tc.q, got, ok, tc.want, tc.ok)
			}
		})
	}
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(tc.xs); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples must be NaN")
	}
}
