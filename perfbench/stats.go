package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile. With
// fewer, the "p99" of a short run is just its largest sample, which moves
// with one outlier rather than with the system.
const minBeyond = 10

// percentile returns the nearest-rank q-quantile of xs — the element at
// index ceil(q·n)−1 of the sorted samples — and false, with no value, when
// fewer than minBeyond samples lie beyond that index. xs is not modified.
func percentile(xs []float64, q float64) (float64, bool) {
	n := len(xs)
	if n == 0 || q <= 0 || q > 1 {
		return 0, false
	}
	// The epsilon keeps q·n exact where the float product overshoots an
	// integer (0.9·100 = 90.00000000000001 would otherwise round up).
	i := int(math.Ceil(q*float64(n)-1e-9)) - 1
	if n-1-i < minBeyond {
		return 0, false
	}
	return sorted(xs)[i], true
}

// median returns the sample median (the mean of the middle pair for even
// n). Unlike a tail percentile it is reported at any sample count, next to
// that count.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
