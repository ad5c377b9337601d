package main

import (
	"math"
	"sort"
	"time"
)

// quantile is the p-quantile of xs by linear interpolation between the
// closest ranks (the "type 7" estimator); 0 for no samples, which is what
// a layer that never ran reports. xs is not modified.
func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	h := p * float64(len(s)-1)
	lo := int(math.Floor(h))
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// geomean is the geometric mean of the probabilities whose natural logs
// are given, summed in slice order so that a seed's value repeats exactly;
// 0 for none.
func geomean(logs []float64) float64 {
	if len(logs) == 0 {
		return 0
	}
	s := 0.0
	for _, l := range logs {
		s += l
	}
	return math.Exp(s / float64(len(logs)))
}
