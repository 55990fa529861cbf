package main

import (
	"math"
	"sort"
)

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// maxWindows bounds how many equal windows a timed phase is split into;
// minPerWindow is the fewest samples a window needs for its p99 to have
// ten samples beyond it.
const (
	maxWindows   = 10
	minPerWindow = 1000
)

// windowedQuantile splits [0, wall) into as many equal windows as the
// sample count allows (each with at least minPerWindow samples, at most
// maxWindows) and returns the median over windows of each window's
// q-quantile. A burst of foreign load then moves one window, not the
// result.
func windowedQuantile(lat, at []float64, wall, q float64) float64 {
	w := min(maxWindows, max(1, len(lat)/minPerWindow))
	per := make([][]float64, w)
	for i, t := range at {
		j := min(w-1, int(t/wall*float64(w)))
		per[j] = append(per[j], lat[i])
	}
	var qs []float64
	for _, xs := range per {
		if len(xs) > 0 {
			qs = append(qs, quantile(xs, q))
		}
	}
	return median(qs)
}

// windowedRate is the median over equal windows, chosen as in
// windowedQuantile, of the completions per second in each.
func windowedRate(at []float64, wall float64) float64 {
	w := min(maxWindows, max(1, len(at)/minPerWindow))
	counts := make([]float64, w)
	for _, t := range at {
		counts[min(w-1, int(t/wall*float64(w)))]++
	}
	for i := range counts {
		counts[i] /= wall / float64(w)
	}
	return median(counts)
}
