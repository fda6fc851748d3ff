package main

import (
	"math"
	"sort"
)

// quantile returns the p-quantile of xs by the nearest-rank rule on a
// sorted copy; NaN for an empty slice.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[min(int(p*float64(len(s))), len(s)-1)]
}

// segmentQuantiles splits xs into segs equal consecutive runs and
// returns the p-quantile of each — the per-segment figures whose median
// the harness reports, so one disturbed segment cannot move a metric.
func segmentQuantiles(xs []float64, segs int, p float64) []float64 {
	out := make([]float64, 0, segs)
	n := len(xs) / segs
	for i := 0; i < segs && n > 0; i++ {
		out = append(out, quantile(xs[i*n:(i+1)*n], p))
	}
	return out
}
