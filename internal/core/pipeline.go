package core

import (
	"fmt"
	"math"
)

// BetaP evaluates Eq. (9), the pipelined memory cycle time for an
// L-byte request:
//
//	βp = βm + q·(L/D − 1)
//
// With L = D it degenerates to βm — pipelining cannot help a
// single-transfer line, which is why the unified-comparison curves
// (Figures 3–5) meet the x-axis at βm = q.
func BetaP(betaM, q, l, d float64) float64 {
	return betaM + q*(l/d-1)
}

// PipelineCrossover returns the memory cycle time βm at which a
// pipelined memory system (readiness q) starts outperforming a doubled
// data bus as a hit-ratio trade (§5.3: "less than about five or six
// clock cycles for q = 2, L > 2D"). The closed form comes from setting
// the two per-miss costs equal:
//
//	(1+α)·βp = (1+α)·(L/2D)·βm  ⇒  βm* = q·(L/D − 1) / (L/2D − 1)
//
// independent of α. For L = 2D the denominator vanishes: pipelining
// never beats bus doubling (Figure 3), reported as +Inf.
func PipelineCrossover(q, l, d float64) (float64, error) {
	if l < 2*d || d <= 0 {
		return 0, fmt.Errorf("core: crossover needs L >= 2D (L=%g, D=%g)", l, d)
	}
	if q < 1 {
		return 0, fmt.Errorf("core: q = %g, want >= 1", q)
	}
	n := l / d
	den := n/2 - 1
	if den <= 0 {
		return math.Inf(1), nil
	}
	return q * (n - 1) / den, nil
}

// PipelineBeatsBus reports whether the pipelined memory trades at least
// as much hit ratio as bus doubling at memory cycle betaM, by direct
// comparison of the Table 3 ratios. It must agree with the closed-form
// crossover; TestCrossoverAgreesWithRatios checks that.
//
//lint:ignore unusedexport paper: the Table 3 pipeline-versus-bus decision rule (§4.4); TestCrossoverAgreesWithRatios checks it
func PipelineBeatsBus(alpha, l, d, betaM, q float64) (bool, error) {
	rPipe, err := MissRatioOfCaches(FeatureSpec{Feature: FeaturePipelinedMemory, Q: q}, alpha, l, d, betaM)
	if err != nil {
		return false, err
	}
	rBus, err := MissRatioOfCaches(FeatureSpec{Feature: FeatureDoubleBus}, alpha, l, d, betaM)
	if err != nil {
		return false, err
	}
	return rPipe >= rBus, nil
}
