// Package stats provides the small statistics toolkit the experiment
// harness uses when aggregating per-program measurements (Figure 1
// averages six SPEC92 programs; reporting their spread shows how much
// of a curve is workload-dependent).
package stats

import (
	"fmt"
	"math"
	"sort"
)

// Summary describes a sample.
type Summary struct {
	N      int
	Mean   float64
	StdDev float64 // sample standard deviation (n−1)
	Min    float64
	Max    float64
	Median float64
}

// Summarize computes a Summary of xs. It returns an error for an empty
// sample.
func Summarize(xs []float64) (Summary, error) {
	if len(xs) == 0 {
		return Summary{}, fmt.Errorf("stats: empty sample")
	}
	s := Summary{N: len(xs), Min: xs[0], Max: xs[0]}
	var sum float64
	for _, x := range xs {
		if math.IsNaN(x) {
			return Summary{}, fmt.Errorf("stats: NaN in sample")
		}
		sum += x
		s.Min = math.Min(s.Min, x)
		s.Max = math.Max(s.Max, x)
	}
	s.Mean = sum / float64(s.N)
	if s.N > 1 {
		var ss float64
		for _, x := range xs {
			d := x - s.Mean
			ss += d * d
		}
		s.StdDev = math.Sqrt(ss / float64(s.N-1))
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	mid := len(sorted) / 2
	if len(sorted)%2 == 1 {
		s.Median = sorted[mid]
	} else {
		s.Median = (sorted[mid-1] + sorted[mid]) / 2
	}
	return s, nil
}
