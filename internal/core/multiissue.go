package core

import "fmt"

// Multiple-instruction-issue extension (the paper's stated future work,
// §6: "We will develop a CPU execution time model for systems where
// the throughput could be more than one instruction per clock cycle").
//
// With an issue width of I instructions per clock, the non-stalled
// portion of Eq. (2) compresses by I while the memory stall terms stay
// in absolute clocks:
//
//	X_I = (E − Λm)/I + (R/L)·φ·βm + α·(R/D)·βm + W·βm
//
// The hit cycle a miss displaces is then worth 1/I instead of 1, so
// every per-miss cost of Table 3 replaces its −1 with −1/I. The
// qualitative consequence, reproduced by the multiissue experiment: as
// I grows, each tradeoff converges to its large-βm limit — memory
// delay dominates sooner, and hit ratio becomes uniformly more
// precious.

// ExecutionTimeMultiIssue evaluates the multi-issue execution time X_I
// for issue width issue ≥ 1.
//
//lint:ignore unusedexport paper: Eq. (2) at issue width I, the §6 multi-issue model; TestMultiIssueExecutionTime checks it
func ExecutionTimeMultiIssue(p Params, issue float64) (float64, error) {
	if issue < 1 {
		return 0, fmt.Errorf("core: issue width %g, want >= 1", issue)
	}
	return (p.E-p.Misses())/issue +
		(p.R/p.L)*p.Phi*p.BetaM +
		p.Alpha*(p.R/p.D)*p.BetaM +
		p.W*p.BetaM, nil
}

// MissRatioOfCachesMultiIssue is MissRatioOfCaches generalized to an
// issue width: the ratio of cache misses r the improved system may
// afford at equal multi-issue execution time. issue = 1 reproduces the
// single-issue Table 3 exactly.
func MissRatioOfCachesMultiIssue(spec FeatureSpec, alpha, l, d, betaM, issue float64) (float64, error) {
	if issue < 1 {
		return 0, fmt.Errorf("core: issue width %g, want >= 1", issue)
	}
	if l < d || d <= 0 {
		return 0, fmt.Errorf("core: L = %g, D = %g, want L >= D > 0", l, d)
	}
	if betaM < 1 {
		return 0, fmt.Errorf("core: βm = %g, want >= 1", betaM)
	}
	if !validAlpha(alpha) {
		return 0, fmt.Errorf("core: α = %g, want in [0, 1]", alpha)
	}
	hit := 1 / issue
	base := (l/d+alpha*l/d)*betaM - hit
	var improved float64
	switch spec.Feature {
	case FeatureDoubleBus:
		if l < 2*d {
			return 0, fmt.Errorf("core: doubling bus needs L >= 2D (L=%g, D=%g)", l, d)
		}
		improved = (l/(2*d))*(1+alpha)*betaM - hit
	case FeaturePartialStall:
		if spec.Phi < 1 || spec.Phi > l/d {
			return 0, fmt.Errorf("core: φ = %g outside [1, L/D = %g]", spec.Phi, l/d)
		}
		improved = (spec.Phi+alpha*l/d)*betaM - hit
	case FeatureWriteBuffers:
		improved = (l/d)*betaM - hit
	case FeaturePipelinedMemory:
		if spec.Q < 1 {
			return 0, fmt.Errorf("core: q = %g, want >= 1", spec.Q)
		}
		improved = (1+alpha)*BetaP(betaM, spec.Q, l, d) - hit
	default:
		return 0, fmt.Errorf("core: unknown feature %v", spec.Feature)
	}
	if improved <= 0 {
		return 0, fmt.Errorf("core: improved per-miss cost %g not positive", improved)
	}
	return base / improved, nil
}

// MultiIssueTradeoff prices a feature at issue width issue against a
// full-blocking single-bus base system with hit ratio baseHR.
func MultiIssueTradeoff(spec FeatureSpec, baseHR, alpha, l, d, betaM, issue float64) (Tradeoff, error) {
	r, err := MissRatioOfCachesMultiIssue(spec, alpha, l, d, betaM, issue)
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
