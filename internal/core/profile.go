package core

import "fmt"

// Profile-based tradeoffs generalize Table 3 beyond write-allocate:
// with a write-around cache the application has W > 0 bypassed store
// misses on the bus, and both R and W scale together when the cache
// shrinks (both are miss events). Setting X_base = X_feature(k) with
// {R', W'} = k·{R, W} is linear in k, giving the general miss-count
// ratio
//
//	k = (cost_base − Λm) / (cost_feature − Λm)
//
// where cost is the total memory stall of Eq. (2) for the profile and
// Λm = R/L + W subtracts the hit cycle each miss displaces. With W = 0
// this reduces exactly to MissRatioOfCaches (asserted by
// TestProfileReducesToWriteAllocate).

// WorkloadProfile is the per-application portion of a tradeoff: the
// measured {R, W, α} of Table 1 plus the cache line size they were
// measured at. It is deliberately assignment-compatible with the
// cache simulator's AppProfile fields.
type WorkloadProfile struct {
	R     float64 // bytes read on misses
	W     float64 // write-around store misses
	Alpha float64 // flush ratio
	L     float64 // line size in bytes
}

// Misses returns Λm = R/L + W (Eq. 1).
func (w WorkloadProfile) Misses() float64 { return w.R/w.L + w.W }

// Validate reports out-of-domain profiles.
func (w WorkloadProfile) Validate() error {
	switch {
	case w.R < 0 || w.W < 0:
		return fmt.Errorf("core: negative R (%g) or W (%g)", w.R, w.W)
	case !validAlpha(w.Alpha):
		return fmt.Errorf("core: α = %g, want in [0, 1]", w.Alpha)
	case w.L <= 0:
		return fmt.Errorf("core: line size %g, want > 0", w.L)
	case w.Misses() <= 0:
		return fmt.Errorf("core: profile has no misses")
	}
	return nil
}

// stallCost returns the total memory stall cycles of Eq. (2) for the
// profile under the given feature. The base (featureless) system is a
// full-blocking cache on a non-pipelined bus without write buffers.
func stallCost(spec FeatureSpec, w WorkloadProfile, d, betaM float64) (float64, error) {
	misses := w.R / w.L
	switch spec.Feature {
	case FeatureDoubleBus:
		if w.L < 2*d {
			return 0, fmt.Errorf("core: doubling bus needs L >= 2D (L=%g, D=%g)", w.L, d)
		}
		// Full stalling on 2D; flushes at 2D; a <= D-byte store still
		// takes one memory cycle on the wider bus.
		return misses*(w.L/(2*d))*(1+w.Alpha)*betaM + w.W*betaM, nil
	case FeaturePartialStall:
		if spec.Phi < 1 || spec.Phi > w.L/d {
			return 0, fmt.Errorf("core: φ = %g outside [1, L/D = %g]", spec.Phi, w.L/d)
		}
		return misses*(spec.Phi+w.Alpha*w.L/d)*betaM + w.W*betaM, nil
	case FeatureWriteBuffers:
		// Read-bypassing buffers hide both the flushes and the
		// write-around stores; a buffered store costs its issue slot
		// only, which the k-equation's −Λm term already accounts for.
		return misses * (w.L / d) * betaM, nil
	case FeaturePipelinedMemory:
		if spec.Q < 1 {
			return 0, fmt.Errorf("core: q = %g, want >= 1", spec.Q)
		}
		bp := BetaP(betaM, spec.Q, w.L, d)
		return misses*(1+w.Alpha)*bp + w.W*betaM, nil
	default:
		return 0, fmt.Errorf("core: unknown feature %v", spec.Feature)
	}
}

// baseStallCost is the featureless full-blocking cost of Eq. (2).
func baseStallCost(w WorkloadProfile, d, betaM float64) float64 {
	return (w.R/w.L)*(w.L/d)*(1+w.Alpha)*betaM + w.W*betaM
}

// MissRatioOfCachesProfile returns the general miss-count ratio k for
// a measured workload profile, covering both write-allocate (W = 0)
// and write-around (W > 0) caches.
func MissRatioOfCachesProfile(spec FeatureSpec, w WorkloadProfile, d, betaM float64) (float64, error) {
	if err := w.Validate(); err != nil {
		return 0, err
	}
	if d <= 0 || w.L < d {
		return 0, fmt.Errorf("core: L = %g, D = %g, want L >= D > 0", w.L, d)
	}
	if betaM < 1 {
		return 0, fmt.Errorf("core: βm = %g, want >= 1", betaM)
	}
	lm := w.Misses()
	base := baseStallCost(w, d, betaM) - lm
	cost, err := stallCost(spec, w, d, betaM)
	if err != nil {
		return 0, err
	}
	improved := cost - lm
	if base <= 0 || improved <= 0 {
		return 0, fmt.Errorf("core: non-positive net stall (base=%g, improved=%g)", base, improved)
	}
	return base / improved, nil
}

// ProfileTradeoff prices a feature for a measured workload profile at
// base hit ratio baseHR.
//
//lint:ignore unusedexport paper: Eq. (6) on the Table 3 ratio generalized to W > 0; TestProfileTradeoffEndToEnd checks it
func ProfileTradeoff(spec FeatureSpec, w WorkloadProfile, baseHR, d, betaM float64) (Tradeoff, error) {
	r, err := MissRatioOfCachesProfile(spec, w, d, betaM)
	if err != nil {
		return Tradeoff{}, err
	}
	t, err := DeltaHR(baseHR, r)
	if err != nil {
		return Tradeoff{}, err
	}
	t.Feature = spec.Feature
	return t, nil
}
