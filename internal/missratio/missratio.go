// Package missratio supplies miss-ratio surfaces MR(C, L) — miss ratio
// as a function of cache size C and line size L.
//
// The paper's Figure 6 validates the line-size tradeoff (Eq. (19))
// against A. J. Smith's design-target optimal line sizes, which were
// derived from his 1987 design target miss ratio tables. Those tables
// are not redistributable, so this package provides:
//
//   - Model: a parametric design-target-style surface, calibrated so
//     that Smith's own selection criterion (Eq. (16): minimize
//     miss-ratio × miss-penalty) reproduces the optimal line sizes the
//     paper quotes in Figure 6's subcaptions (32 B for a 16 KB cache at
//     D=4, 360 ns + 15 ns/B; 16 B at D=8, 160 ns + 15 ns/B; 64–128 B at
//     D=8, 600 ns + 4 ns/B; 32 B for 8 KB at D=8, 360 ns + 15 ns/B).
//     Because the paper's validation claim is *relative* — Eq. (19)
//     picks the same line as Eq. (16) — any monotone-consistent surface
//     preserves the experiment (DESIGN.md §4, substitution 3).
//
//   - Table: an empirical surface measured from the cache simulator,
//     so the same experiments can run on simulated data (-source=sim).
//
// Both implement the shared Surface interface.
package missratio

import (
	"fmt"
	"math"
	"sort"
)

// Surface is a miss-ratio function over cache geometry.
type Surface interface {
	// MissRatio returns the expected data-cache miss ratio for a cache
	// of size bytes with lineSize-byte lines. Implementations return
	// values in (0, 1].
	MissRatio(size, lineSize int) float64
}

// Model is the calibrated parametric design-target surface:
//
//	MR(C, L) = A · (C/C0)^(−γ) · (L^(−σ) + k·L/C)
//
// The L^(−σ) term captures spatial-locality gains from longer lines
// with diminishing returns (σ < 1); the k·L/C term captures line
// pollution — long lines displace useful data in small caches — giving
// the U-shaped delay curve that makes an optimal line size exist. The
// C^(−γ) power law matches the usual design-target size scaling.
//
// The zero value is not calibrated; use DefaultModel or fill all fields.
type Model struct {
	A     float64 // amplitude: MR scale at the reference geometry
	C0    float64 // reference cache size in bytes
	Gamma float64 // cache-size exponent γ
	Sigma float64 // line-size exponent σ
	K     float64 // pollution coefficient k
}

// DefaultModel returns the surface calibrated against the Figure 6
// subcaption optima (see package comment and missratio_test.go, which
// asserts all four calibration targets).
func DefaultModel() Model {
	return Model{A: 0.040, C0: 16 << 10, Gamma: 0.30, Sigma: 0.70, K: 2.5}
}

// MissRatio implements Surface. Results are clamped to (0, 1].
func (m Model) MissRatio(size, lineSize int) float64 {
	if size <= 0 || lineSize <= 0 {
		return 1
	}
	c, l := float64(size), float64(lineSize)
	// Normalize the shape factor so that MR(C0, 32) == A.
	ref := math.Pow(32, -m.Sigma) + m.K*32/m.C0
	mr := m.A * math.Pow(c/m.C0, -m.Gamma) * (math.Pow(l, -m.Sigma) + m.K*l/c) / ref
	return math.Min(1, math.Max(1e-9, mr))
}

// Table is an empirical miss-ratio surface backed by measured points,
// e.g. from cache-simulator sweeps. Lookups require exact (size, line)
// hits; Interp provides log-space interpolation on line size.
type Table struct {
	points map[geom]float64
}

type geom struct{ size, line int }

// NewTable returns an empty table.
func NewTable() *Table { return &Table{points: make(map[geom]float64)} }

// Set records the miss ratio for a geometry.
func (t *Table) Set(size, lineSize int, mr float64) {
	t.points[geom{size, lineSize}] = mr
}

// Len returns the number of recorded points.
func (t *Table) Len() int { return len(t.points) }

// Lookup returns the recorded miss ratio and whether it exists.
func (t *Table) Lookup(size, lineSize int) (float64, bool) {
	mr, ok := t.points[geom{size, lineSize}]
	return mr, ok
}

// MissRatio implements Surface. For a missing geometry it interpolates
// linearly in log2(lineSize) between the nearest recorded lines of the
// same cache size, and panics if no point for that size exists at all —
// a misuse, since tables are built per experiment.
func (t *Table) MissRatio(size, lineSize int) float64 {
	if mr, ok := t.Lookup(size, lineSize); ok {
		return mr
	}
	lines := t.Lines(size)
	if len(lines) == 0 {
		panic(fmt.Sprintf("missratio: no data for cache size %d", size))
	}
	// Clamp outside the measured range.
	if lineSize <= lines[0] {
		return t.points[geom{size, lines[0]}]
	}
	if lineSize >= lines[len(lines)-1] {
		return t.points[geom{size, lines[len(lines)-1]}]
	}
	// Interpolate between the bracketing measured lines.
	i := sort.SearchInts(lines, lineSize)
	lo, hi := lines[i-1], lines[i]
	mrLo, mrHi := t.points[geom{size, lo}], t.points[geom{size, hi}]
	frac := (math.Log2(float64(lineSize)) - math.Log2(float64(lo))) /
		(math.Log2(float64(hi)) - math.Log2(float64(lo)))
	return mrLo + frac*(mrHi-mrLo)
}

// Lines returns the distinct line sizes recorded for a cache size,
// ascending.
func (t *Table) Lines(size int) []int {
	var lines []int
	for g := range t.points {
		if g.size == size {
			lines = append(lines, g.line)
		}
	}
	sort.Ints(lines)
	return lines
}
