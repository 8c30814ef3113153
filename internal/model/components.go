package model

import (
	"math"

	"tradeoff/internal/trace"
)

// This file derives one stack-distance histogram per primitive
// generator, directly from the normalized trace configs. Conventions:
// n is the component's reference share; distances are in lines of L
// bytes counting only this component's own lines (regions are
// disjoint, so blending adds foreign lines separately); every
// derivation is documented in DESIGN.md §5.6.

// seqModel prices a strided sweep over a Length-byte region that
// wraps forever (trace.Sequential). Per sweep there are
// N = ceil(Length/Stride) references over U distinct lines: with
// Stride < L each line absorbs a = L/Stride back-to-back touches
// (distance 0), and each line's first touch of a sweep last saw the
// line one whole sweep ago — every other line intervened, distance
// U−1. With Stride ≥ L every access opens a fresh line: a = 1 and
// the distance-0 mass vanishes.
func seqModel(cfg trace.SequentialConfig, lineSize int, n float64) compModel {
	L := float64(lineSize)
	S := float64(cfg.Stride)
	Len := float64(cfg.Length)
	N := math.Ceil(Len / S) // refs per sweep
	U := N                  // distinct lines per sweep
	a := 1.0                // refs per line per sweep
	if S < L {
		U = math.Ceil(Len / L)
		a = N / U
	}
	first := n / a // per-sweep first touches seen in n refs
	cold := math.Min(first, U)
	var m compModel
	m.cold = cold
	m.entries = append(m.entries,
		entry{d: 0, gap: 1, w: n - first},
		entry{d: U - 1, gap: N, w: math.Max(0, first-cold)},
	)
	m.ws = func(refs float64) float64 {
		return math.Min(U, math.Ceil(refs/a))
	}
	return m
}

// wsModel prices uniform references inside a SetBytes working set
// that drifts across HeapBytes with per-reference probability
// Migrate (trace.WorkingSet). Within an epoch the stream is an
// independent-reference model over U = SetBytes/L equiprobable
// lines, whose LRU stack-distance distribution is uniform on
// [0, U−1] by symmetry; the recurrence gap behind distance d is the
// coupon-collector time for d distinct others,
// ln(1−d/U)/ln(1−1/U). Each migration abandons the set: the next
// epoch's W(r) distinct lines are fresh (cold) except for the
// covered/H fraction that happens to overlap ground already touched,
// which reuses at a distance of roughly the lines touched since.
func wsModel(cfg trace.WorkingSetConfig, lineSize int, n float64) compModel {
	L := float64(lineSize)
	U := math.Ceil(float64(cfg.SetBytes) / L)
	H := math.Ceil(float64(cfg.HeapBytes) / L)
	if U < 1 {
		U = 1
	}
	lnq := math.Log1p(-1 / U) // ln(1 − 1/U)
	touched := func(r float64) float64 {
		if U <= 1 {
			return 1
		}
		return U * -math.Expm1(r*lnq) // U(1 − (1−1/U)^r)
	}

	epochs := 1.0
	if cfg.Migrate > 0 {
		epochs += n * cfg.Migrate
	}
	perEpoch := n / epochs
	We := touched(perEpoch)

	var m compModel
	covered := 0.0
	for e := 0; e < int(math.Ceil(epochs)); e++ {
		frac := math.Min(1, epochs-float64(e))
		fresh := frac * We * (1 - covered/H)
		overlap := frac*We - fresh
		m.cold += fresh
		if overlap > 0 {
			// Re-touches of lines from k epochs back (k uniform over
			// the e prior epochs): about (k+1)/2·We distinct lines
			// intervened on average.
			d := math.Min(covered, float64(e+1)/2*We)
			m.entries = append(m.entries, entry{d: d, gap: perEpoch, w: overlap})
		}
		covered += fresh
	}

	gap := func(d float64) float64 {
		if U <= 1 {
			return 1
		}
		return math.Max(1, math.Log1p(-(d+0.5)/U)/lnq)
	}
	m.entries = addUniform(m.entries, U, n-epochs*We, gap)

	m.ws = func(refs float64) float64 {
		w := touched(refs)
		if cfg.Migrate > 0 {
			w += refs * cfg.Migrate * We * (1 - U/H)
		}
		return math.Min(H, w)
	}
	return m
}

// stenModel prices a row-major stencil sweep (trace.Stencil2D). Each
// cell update touches three row-segments — north, center, south
// lines — so within a line-window the t = Points(+writeback) refs
// reuse at distances ≤ 2; the exact within-window mix comes from a
// tiny LRU-stack replay of one update's line-id pattern (replayUpdate).
// The window advances every cl = L/ElemSize updates, opening three
// lines: the new center and north lines were last touched one row
// sweep ago (≈3 row-lines intervened), while the new south line last
// appeared a whole grid sweep ago (≈ the entire grid intervened).
func stenModel(cfg trace.Stencil2DConfig, lineSize int, n float64) compModel {
	L := float64(lineSize)
	E := float64(cfg.ElemSize)
	t := float64(cfg.Points)
	if cfg.WriteBack {
		t++
	}
	cl := math.Max(1, L/E)                           // cells per line
	rowLines := math.Ceil(float64(cfg.Cols) * E / L) // lines per grid row
	G := math.Ceil(float64(cfg.Rows) * float64(cfg.Cols) * E / L)
	Ci := float64(cfg.Cols - 2) // updates per row sweep
	Ri := float64(cfg.Rows - 2) // row sweeps per grid sweep
	refsPerRow := Ci * t
	refsPerSweep := Ri * refsPerRow
	dRow := 3 * rowLines

	wsFn := func(refs float64) float64 {
		u := refs / t // updates
		if u <= Ci {
			return math.Min(G, 3+3*u/cl)
		}
		return math.Min(G, 3*rowLines+(u-Ci)*rowLines/Ci)
	}

	var m compModel
	m.cold = wsFn(n)
	// Window-advance events: one per cl updates, re-opening 2 lines at
	// the row distance and 1 at the grid distance. First-sweep advances
	// are the cold misses already counted above.
	adv := n / t / cl * 3
	steady := math.Max(0, adv-m.cold)
	m.entries = append(m.entries,
		entry{d: dRow, gap: refsPerRow, w: steady * 2 / 3},
		entry{d: G, gap: refsPerSweep, w: steady / 3},
	)
	// Everything else reuses within the current window at the
	// distances the update pattern dictates.
	small := math.Max(0, n-m.cold-steady)
	for d, share := range replayUpdate(cfg) {
		m.entries = append(m.entries, entry{d: float64(d), gap: t / 2, w: small * share})
	}
	m.ws = wsFn
	return m
}

// replayUpdate plays one steady-state cell update through a 3-line
// LRU stack and returns the distribution of within-window stack
// distances: the line-id sequence is the row offsets of the stencil
// points (north/center/south), center first, write-back last —
// exactly the emission order of trace.Stencil2D.
func replayUpdate(cfg trace.Stencil2DConfig) map[int]float64 {
	offsets := [9]int{0, 0, 0, -1, 1, -1, -1, 1, 1} // row offsets, generator order
	var seq []int
	for p := 0; p < cfg.Points; p++ {
		seq = append(seq, offsets[p])
	}
	if cfg.WriteBack {
		seq = append(seq, 0)
	}
	counts := make(map[int]float64)
	var stack []int
	// Two warm-up updates, then count the third (steady state).
	for rep := 0; rep < 3; rep++ {
		for _, line := range seq {
			pos := -1
			for i, l := range stack {
				if l == line {
					pos = i
					break
				}
			}
			if pos >= 0 {
				if rep == 2 {
					counts[pos]++
				}
				stack = append(stack[:pos], stack[pos+1:]...)
			}
			stack = append([]int{line}, stack...)
		}
	}
	total := 0.0
	for _, c := range counts {
		total += c
	}
	for d := range counts {
		counts[d] /= total
	}
	return counts
}

// pcModel prices a Sattolo-cycle pointer chase (trace.PointerChase):
// v = 1+Fields references per node visit, all landing on the node's
// leading line(s). Alignment is handled exactly by walking one
// lcm(NodeSize, L) period: it yields the fraction of pool lines ever
// touched and how many nodes share each touched line (g). A line
// shared by g randomly-placed nodes is revisited about every
// cycle/g visits, with 1/g of the touched pool intervening.
func pcModel(cfg trace.PointerChaseConfig, lineSize int, n float64) compModel {
	L := uint64(lineSize)
	Z := cfg.NodeSize
	v := float64(1 + cfg.Fields)
	Nv := float64(cfg.Nodes)

	// One alignment period: lcm(Z, L)/Z nodes spanning lcm(Z, L)/L lines.
	g := gcd(Z, L)
	periodNodes := int(L / g)
	if periodNodes > cfg.Nodes {
		periodNodes = cfg.Nodes
	}
	lineRefs := make(map[uint64]float64) // line-in-period → refs per cycle-period
	lineNodes := make(map[uint64]int)    // line-in-period → nodes touching it
	for i := 0; i < periodNodes; i++ {
		base := uint64(i) * Z
		touched := make(map[uint64]int)
		touched[base/L]++ // link read
		for f := 1; f <= cfg.Fields; f++ {
			touched[(base+(uint64(f)*8)%Z)/L]++
		}
		for line, refs := range touched {
			lineRefs[line] += float64(refs)
			lineNodes[line]++
		}
	}
	// Scale the period to the pool.
	scale := Nv / float64(periodNodes)
	Upc := float64(len(lineRefs)) * scale // pool lines ever touched

	visits := n / v
	coverage := math.Min(1, visits/Nv) // fraction of the cycle completed
	var m compModel
	m.cold = Upc * coverage
	// Per full cycle each touched line sees its g visit-groups: the
	// group-leading ref reuses at ≈ Upc/g, the rest within the visit
	// at distance 0 (or 1 for rare straddling nodes — folded into 0).
	groupFirstPerCycle := 0.0
	d0PerCycle := 0.0
	for line, refs := range lineRefs {
		gl := float64(lineNodes[line])
		groupFirstPerCycle += gl * scale
		d0PerCycle += (refs - gl) * scale
	}
	cycles := visits / Nv
	firsts := groupFirstPerCycle * cycles
	steadyFirsts := math.Max(0, firsts-m.cold)
	// Aggregate group-first entries by sharing degree g.
	byG := make(map[int]float64)
	for _, g := range lineNodes {
		byG[g] += float64(g) * scale
	}
	totalG := 0.0
	for _, w := range byG {
		totalG += w
	}
	for g, w := range byG {
		gf := float64(g)
		m.entries = append(m.entries, entry{
			d:   Upc / gf,
			gap: Nv * v / gf,
			w:   steadyFirsts * w / totalG,
		})
	}
	m.entries = append(m.entries, entry{d: 0, gap: 1, w: d0PerCycle * cycles})
	m.ws = func(refs float64) float64 {
		return Upc * math.Min(1, refs/v/Nv)
	}
	return m
}

func gcd(a, b uint64) uint64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}
