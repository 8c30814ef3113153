package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSummarizeBasics(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Mean != 5 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.StdDev-2.138) > 0.01 {
		t.Fatalf("stddev %.4f, want ≈2.138 (sample)", s.StdDev)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max %g/%g", s.Min, s.Max)
	}
	if s.Median != 4.5 {
		t.Fatalf("median %g, want 4.5", s.Median)
	}
}

func TestSummarizeOddMedian(t *testing.T) {
	s, err := Summarize([]float64{9, 1, 5})
	if err != nil {
		t.Fatal(err)
	}
	if s.Median != 5 {
		t.Fatalf("median %g, want 5", s.Median)
	}
}

func TestSummarizeSingle(t *testing.T) {
	s, err := Summarize([]float64{3})
	if err != nil {
		t.Fatal(err)
	}
	if s.StdDev != 0 || s.Mean != 3 || s.Median != 3 {
		t.Fatalf("single-sample summary %+v", s)
	}
}

func TestSummarizeErrors(t *testing.T) {
	if _, err := Summarize(nil); err == nil {
		t.Fatal("empty sample accepted")
	}
	if _, err := Summarize([]float64{1, math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	if _, err := Summarize(xs); err != nil {
		t.Fatal(err)
	}
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Summarize sorted its input")
	}
}

func TestSummaryBoundsQuick(t *testing.T) {
	f := func(raw []float64) bool {
		xs := make([]float64, 0, len(raw))
		for _, x := range raw {
			// Keep inputs finite and modest so sums cannot overflow —
			// the harness aggregates ratios and cycle counts, not
			// astronomically scaled values.
			if !math.IsNaN(x) && math.Abs(x) < 1e12 {
				xs = append(xs, x)
			}
		}
		if len(xs) == 0 {
			return true
		}
		s, err := Summarize(xs)
		if err != nil {
			return false
		}
		return s.Min <= s.Median && s.Median <= s.Max &&
			s.Min <= s.Mean && s.Mean <= s.Max && s.StdDev >= 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
