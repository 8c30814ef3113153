package missratio

import (
	"math"
	"testing"
	"testing/quick"

	"tradeoff/internal/cache"
	"tradeoff/internal/trace"
)

func TestModelBasicShape(t *testing.T) {
	m := DefaultModel()
	// Larger caches miss less (same line size).
	if m.MissRatio(32<<10, 32) >= m.MissRatio(8<<10, 32) {
		t.Fatal("miss ratio did not fall with cache size")
	}
	// Growing the line from small sizes helps (spatial locality)...
	if m.MissRatio(16<<10, 32) >= m.MissRatio(16<<10, 8) {
		t.Fatal("miss ratio did not fall from 8B to 32B lines")
	}
	// ...but extreme lines pollute a small cache.
	if m.MissRatio(1<<10, 512) <= m.MissRatio(1<<10, 64) {
		t.Fatal("no pollution penalty for 512B lines in a 1K cache")
	}
}

func TestModelReferencePoint(t *testing.T) {
	m := DefaultModel()
	// By construction MR(C0, 32) == A.
	if got := m.MissRatio(16<<10, 32); math.Abs(got-m.A) > 1e-12 {
		t.Fatalf("MR(C0, 32) = %v, want %v", got, m.A)
	}
}

func TestModelClamps(t *testing.T) {
	m := DefaultModel()
	if m.MissRatio(0, 32) != 1 || m.MissRatio(16<<10, 0) != 1 {
		t.Fatal("degenerate geometry not clamped to 1")
	}
	f := func(sizeExp, lineExp uint8) bool {
		size := 1 << (8 + sizeExp%12)
		line := 4 << (lineExp % 8)
		mr := m.MissRatio(size, line)
		return mr > 0 && mr <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// smithOptimal applies Smith's criterion (Eq. (16) of the paper):
// minimize miss-ratio × miss-penalty, penalty = c' + β·L/D with
// c' = λ·β (latency expressed in bus cycles; see DESIGN.md §4).
func smithOptimal(s Surface, size, busWidth int, lambda float64, lines []int) int {
	best, bestV := 0, math.Inf(1)
	for _, l := range lines {
		v := s.MissRatio(size, l) * (lambda + float64(l)/float64(busWidth))
		if v < bestV {
			best, bestV = l, v
		}
	}
	return best
}

func TestCalibrationMatchesFigure6Subcaptions(t *testing.T) {
	// The four Figure 6 design points and the line sizes Smith's
	// criterion chose in the paper.
	m := DefaultModel()
	lines := []int{8, 16, 32, 64, 128, 256}
	cases := []struct {
		name     string
		size     int
		busWidth int
		lambda   float64 // latency-ns / (ns-per-byte × D): c−1 = λβ
		want     []int   // acceptable optima
	}{
		{"(a) 16K D=4 360ns+15ns/B", 16 << 10, 4, 360.0 / (15 * 4), []int{32}},
		{"(b) 16K D=8 160ns+15ns/B", 16 << 10, 8, 160.0 / (15 * 8), []int{16}},
		{"(c) 16K D=8 600ns+4ns/B", 16 << 10, 8, 600.0 / (4 * 8), []int{64, 128}},
		{"(d) 8K D=8 360ns+15ns/B", 8 << 10, 8, 360.0 / (15 * 8), []int{32}},
	}
	for _, tc := range cases {
		got := smithOptimal(m, tc.size, tc.busWidth, tc.lambda, lines)
		ok := false
		for _, w := range tc.want {
			if got == w {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s: Smith-optimal line %d, want one of %v", tc.name, got, tc.want)
		}
	}
}

func TestTableLookupAndLen(t *testing.T) {
	tab := NewTable()
	if tab.Len() != 0 {
		t.Fatal("fresh table not empty")
	}
	tab.Set(8<<10, 16, 0.05)
	tab.Set(8<<10, 32, 0.03)
	if tab.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tab.Len())
	}
	if mr, ok := tab.Lookup(8<<10, 16); !ok || mr != 0.05 {
		t.Fatalf("Lookup = %v,%v", mr, ok)
	}
	if _, ok := tab.Lookup(8<<10, 64); ok {
		t.Fatal("Lookup found a missing point")
	}
}

func TestTableInterpolation(t *testing.T) {
	tab := NewTable()
	tab.Set(8<<10, 16, 0.08)
	tab.Set(8<<10, 64, 0.02)
	// log2 midpoint of 16 and 64 is 32.
	if got := tab.MissRatio(8<<10, 32); math.Abs(got-0.05) > 1e-12 {
		t.Fatalf("interpolated MR(32) = %v, want 0.05", got)
	}
	// Clamping outside the range.
	if got := tab.MissRatio(8<<10, 8); got != 0.08 {
		t.Fatalf("MR below range = %v, want clamp to 0.08", got)
	}
	if got := tab.MissRatio(8<<10, 256); got != 0.02 {
		t.Fatalf("MR above range = %v, want clamp to 0.02", got)
	}
}

func TestTablePanicsWithoutSizeData(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for unknown cache size")
		}
	}()
	NewTable().MissRatio(4<<10, 32)
}

func TestTableLines(t *testing.T) {
	tab := NewTable()
	tab.Set(16<<10, 32, 0.04)
	tab.Set(8<<10, 64, 0.05)
	tab.Set(8<<10, 16, 0.09)
	if l := tab.Lines(8 << 10); len(l) != 2 || l[0] != 16 || l[1] != 64 {
		t.Fatalf("Lines(8K) = %v", l)
	}
}

func TestSimulatedTableAgreesOnShape(t *testing.T) {
	// Build a Table from the cache simulator and check it shows the
	// same qualitative structure as the parametric model: miss ratio
	// decreasing in line size over the small-line range for a
	// locality-rich workload.
	refs := trace.Collect(trace.MustProgram(trace.Swm256, 11), 150000)
	tab := NewTable()
	for _, ls := range []int{8, 16, 32, 64} {
		c := cache.MustNew(cache.Config{Size: 8 << 10, LineSize: ls, Assoc: 2})
		p := cache.Measure(c, refs)
		tab.Set(8<<10, ls, 1-p.HitRatio)
	}
	prev := 2.0
	for _, ls := range []int{8, 16, 32, 64} {
		mr := tab.MissRatio(8<<10, ls)
		if mr >= prev {
			t.Fatalf("simulated MR not decreasing at line %d: %v >= %v", ls, mr, prev)
		}
		prev = mr
	}
}
