package core

import "fmt"

// The line-size tradeoff (§5.4) uses Smith's fill-time model
// c + (L/D)·β: a constant access latency c plus β cycles per D-byte
// transfer. It answers: how much extra hit ratio must a larger line L*
// deliver before it beats a smaller line L0 on mean memory delay?

// FillTime returns c + (L/D)·β, the time to fill an L-byte line.
func FillTime(c, beta, l, d float64) float64 { return c + (l/d)*beta }

// LineExecTime evaluates Eq. (11)/(12): the execution time of a
// full-stalling write-allocate system under the c + (L/D)β fill model,
// with flush ratio alpha and W write-around misses each costing c + β.
//
//lint:ignore unusedexport paper: Eqs. (11)–(12) (§5.4); TestLineExecTimeEq11 checks it
func LineExecTime(e, r, w, alpha, c, beta, l, d float64) float64 {
	fill := FillTime(c, beta, l, d)
	return (e - r/l - w) + (r/l)*(1+alpha)*fill + w*(c+beta)
}

// LineByteRatio returns R*/R from Eq. (13): the bytes the larger-line
// system may read for equal execution time,
//
//	R*/R = (L*/L0) · ((1+α)·(c + (L0/D)β) − 1) / ((1+α*)·(c + (L*/D)β) − 1)
func LineByteRatio(alpha0, alphaStar, c, beta, l0, lStar, d float64) (float64, error) {
	if lStar <= l0 {
		return 0, fmt.Errorf("core: L* = %g must exceed L0 = %g", lStar, l0)
	}
	num := (1+alpha0)*FillTime(c, beta, l0, d) - 1
	den := (1+alphaStar)*FillTime(c, beta, lStar, d) - 1
	if num <= 0 || den <= 0 {
		return 0, fmt.Errorf("core: non-positive per-miss cost (num=%g, den=%g)", num, den)
	}
	return (lStar / l0) * num / den, nil
}

// LineMissRatioOfCaches returns r = Λ*/Λ0 = (R*/L*)/(R/L0), the
// miss-count ratio implied by Eq. (13). It is below one: the larger
// line's misses cost more, so fewer are affordable.
func LineMissRatioOfCaches(alpha0, alphaStar, c, beta, l0, lStar, d float64) (float64, error) {
	br, err := LineByteRatio(alpha0, alphaStar, c, beta, l0, lStar, d)
	if err != nil {
		return 0, err
	}
	return br * l0 / lStar, nil
}

// DeltaEHR evaluates Eq. (14): the minimum hit-ratio improvement a
// larger line must provide to match the smaller line's performance,
//
//	ΔEHR = EHR − HR = (1 − r) / (s + 1)
//
// where s comes from the smaller-line system's hit ratio hr0.
func DeltaEHR(hr0, alpha0, alphaStar, c, beta, l0, lStar, d float64) (float64, error) {
	s, err := SFromHitRatio(hr0)
	if err != nil {
		return 0, err
	}
	r, err := LineMissRatioOfCaches(alpha0, alphaStar, c, beta, l0, lStar, d)
	if err != nil {
		return 0, err
	}
	return (1 - r) / (s + 1), nil
}

// LargerLineWorthIt applies §5.4.1's decision rule: given the actual
// hit-ratio gain deltaHR of using L* over L0 (a property of the
// application at fixed cache size), the larger line improves
// performance only if deltaHR exceeds the required ΔEHR of Eq. (14).
//
//lint:ignore unusedexport paper: the §5.4.1 decision rule on Eq. (14); TestLargerLineWorthItDecision checks it
func LargerLineWorthIt(deltaHR, hr0, alpha0, alphaStar, c, beta, l0, lStar, d float64) (bool, error) {
	need, err := DeltaEHR(hr0, alpha0, alphaStar, c, beta, l0, lStar, d)
	if err != nil {
		return false, err
	}
	return deltaHR > need, nil
}

// MeanDelayPerRef evaluates Eq. (15)'s per-reference delay for a line
// of size l under the fill model: HR·1 + (1−HR)·(c + (L/D)β). The hit
// cycle time is one, as in the paper.
func MeanDelayPerRef(hr, c, beta, l, d float64) float64 {
	return hr + (1-hr)*FillTime(c, beta, l, d)
}

// ReducedDelay evaluates Eq. (19)'s objective for candidate line li
// against base l0: (ΔMR − ΔEMR)·(c − 1 + (Li/D)β), the memory delay
// per reference saved by choosing li. A negative value means the bus
// is too slow for the larger line to exploit its higher hit ratio.
// hr0 and hrI are the measured hit ratios of the two lines; flush
// ratios are zero here to match Smith's delay criterion (Eq. 15/16).
func ReducedDelay(hr0, hrI, c, beta, l0, li, d float64) (float64, error) {
	if approxEqual(li, l0) {
		return 0, nil
	}
	dEHR, err := DeltaEHR(hr0, 0, 0, c, beta, l0, li, d)
	if err != nil {
		return 0, err
	}
	dHR := hrI - hr0 // = ΔMR, the actual miss-ratio reduction
	return (dHR - dEHR) * (c - 1 + (li/d)*beta), nil
}
