package core

import (
	"fmt"
	"math"
)

// Feature identifies an architectural feature whose performance the
// methodology prices in hit ratio. The baseline for every feature is a
// full-blocking (FS) cache on a non-pipelined memory system with no
// write buffers (§5.3).
type Feature int

const (
	// FeatureDoubleBus doubles the external data-bus width D → 2D
	// (§4.1). The memory width doubles with it.
	FeatureDoubleBus Feature = iota
	// FeaturePartialStall replaces the full-stalling cache with a
	// partially-stalling one (BL or BNL) of measured stalling factor φ
	// (§4.2).
	FeaturePartialStall
	// FeatureWriteBuffers adds ideal read-bypassing write buffers,
	// hiding the flush term completely (§4.3).
	FeatureWriteBuffers
	// FeaturePipelinedMemory pipelines the memory system with
	// readiness interval q (§4.4, Eq. 9).
	FeaturePipelinedMemory
)

func (f Feature) String() string {
	switch f {
	case FeatureDoubleBus:
		return "doubling bus width"
	case FeaturePartialStall:
		return "partially-stalling cache"
	case FeatureWriteBuffers:
		return "read-bypassing write buffers"
	case FeaturePipelinedMemory:
		return "pipelined memory"
	default:
		return fmt.Sprintf("Feature(%d)", int(f))
	}
}

// FeatureSpec supplies the feature-specific knobs of Table 3.
type FeatureSpec struct {
	Feature Feature
	Phi     float64 // PartialStall: measured stalling factor φ ∈ [1, L/D]
	Q       float64 // PipelinedMemory: readiness interval q ≥ 1
}

// perMissCost returns the bracketed per-miss cost of the execution-time
// model under write-allocate (W = 0): each miss contributes
// (φ + α·L/D)·βm − 1 cycles beyond the one-cycle hit it replaces. The
// −1 is the hit cycle the miss no longer spends as a hit (Eq. 3's form).
func perMissCost(phi, alpha, l, d, betaM float64) float64 {
	return (phi+alpha*l/d)*betaM - 1
}

// MissRatioOfCaches returns r, Table 3's "ratio of cache misses": the
// factor by which the improved system may multiply its miss count
// (equivalently R' = r·R under write-allocate) while matching the
// baseline full-blocking system's execution time. alpha is the flush
// ratio α = α' shared by both systems; l, d, betaM describe the
// baseline. r > 1 means the feature buys hit ratio.
//
// It returns an error when the spec is out of the model's domain.
func MissRatioOfCaches(spec FeatureSpec, alpha, l, d, betaM float64) (float64, error) {
	if l < d || d <= 0 {
		return 0, fmt.Errorf("core: L = %g, D = %g, want L >= D > 0", l, d)
	}
	if betaM < 1 {
		return 0, fmt.Errorf("core: βm = %g, want >= 1", betaM)
	}
	if !validAlpha(alpha) {
		return 0, fmt.Errorf("core: α = %g, want in [0, 1]", alpha)
	}
	base := perMissCost(l/d, alpha, l, d, betaM) // full-blocking baseline
	var improved float64
	switch spec.Feature {
	case FeatureDoubleBus:
		if l < 2*d {
			return 0, fmt.Errorf("core: doubling bus needs L >= 2D (L=%g, D=%g)", l, d)
		}
		// Full stalling on the doubled bus: φ' = L/2D, flush α·L/2D.
		improved = perMissCost(l/(2*d), alpha, l, 2*d, betaM)
	case FeaturePartialStall:
		if spec.Phi < 1 || spec.Phi > l/d {
			return 0, fmt.Errorf("core: φ = %g outside [1, L/D = %g]", spec.Phi, l/d)
		}
		improved = perMissCost(spec.Phi, alpha, l, d, betaM)
	case FeatureWriteBuffers:
		// Flushes completely hidden: α term drops.
		improved = perMissCost(l/d, 0, l, d, betaM)
	case FeaturePipelinedMemory:
		if spec.Q < 1 {
			return 0, fmt.Errorf("core: q = %g, want >= 1", spec.Q)
		}
		// Fill and flush each take βp (Eq. 9) instead of (L/D)βm.
		bp := BetaP(betaM, spec.Q, l, d)
		improved = (1+alpha)*bp - 1
	default:
		return 0, fmt.Errorf("core: unknown feature %v", spec.Feature)
	}
	if improved <= 0 {
		return 0, fmt.Errorf("core: improved per-miss cost %g not positive (βm too small for the model)", improved)
	}
	return base / improved, nil
}

// BusWidthByteRatio returns R'/R for the bus-doubling tradeoff, Eq. (3):
//
//	R'/R = ((φ + α·L/D)·βm − 1) / ((φ' + α'·L/2D)·βm − 1)
//
// for arbitrary stalling factors φ (D system) and φ' (2D system) and
// flush ratios α, α'. Under full blocking and α = α' this equals
// MissRatioOfCaches for FeatureDoubleBus.
//
//lint:ignore unusedexport paper: Eq. (3) for arbitrary φ, φ′, α, α′; TestBusWidthByteRatioEq3 checks it
func BusWidthByteRatio(phi, phi2, alpha, alpha2, l, d, betaM float64) (float64, error) {
	if l < 2*d || d <= 0 {
		return 0, fmt.Errorf("core: Eq. 3 needs L >= 2D (L=%g, D=%g)", l, d)
	}
	num := (phi+alpha*l/d)*betaM - 1
	den := (phi2+alpha2*l/(2*d))*betaM - 1
	if den <= 0 || num <= 0 {
		return 0, fmt.Errorf("core: per-miss costs must be positive (num=%g, den=%g)", num, den)
	}
	return num / den, nil
}

// limitRatioLargeBeta returns the βm→∞ limit of MissRatioOfCaches for a
// spec, used by the §4.1 limit analysis (L'Hospital): the −1 terms
// vanish and the ratio of the βm coefficients remains.
func limitRatioLargeBeta(spec FeatureSpec, alpha, l, d float64) float64 {
	base := l/d + alpha*l/d
	var improved float64
	switch spec.Feature {
	case FeatureDoubleBus:
		improved = l/(2*d) + alpha*l/(2*d)
	case FeaturePartialStall:
		improved = spec.Phi + alpha*l/d
	case FeatureWriteBuffers:
		improved = l / d
	case FeaturePipelinedMemory:
		// βp/βm → 1 as βm → ∞ with q fixed.
		improved = 1 + alpha
	default:
		return math.NaN()
	}
	return base / improved
}
