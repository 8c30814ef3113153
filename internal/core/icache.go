package core

import "fmt"

// Instruction-cache extension (§3.4): instruction misses add
// f·(RI/L)·φI·βm to the CPU execution time, where RI is the
// instruction bytes fetched on misses and φI ≥ 1 the instruction
// fetch stalling factor. §4.5 notes the mean memory delay of an
// instruction (or unified) cache has the same form as a data cache,
// so the whole tradeoff methodology applies to it unchanged — the
// functions below make that concrete and the icache tests verify the
// equivalence numerically.

// ICacheParams extends Params with an instruction-fetch stream.
type ICacheParams struct {
	Params
	RI   float64 // instruction bytes read on I-cache misses
	PhiI float64 // instruction-fetch stalling factor, >= 1 (full blocking: L/D)
}

// Validate extends Params.Validate to the instruction stream.
//
//lint:ignore unusedexport paper: the φI ∈ [1, L/D] domain of Table 2 for the §3.4 instruction-miss term; TestICacheValidation checks it
func (p ICacheParams) Validate() error {
	if err := p.Params.Validate(); err != nil {
		return err
	}
	if p.RI < 0 {
		return fmt.Errorf("core: negative RI (%g)", p.RI)
	}
	if p.RI > 0 && (p.PhiI < 1 || p.PhiI > p.L/p.D) {
		return fmt.Errorf("core: φI = %g outside [1, L/D = %g]", p.PhiI, p.L/p.D)
	}
	return nil
}

// ExecutionTimeWithICache evaluates Eq. (2) plus the §3.4 instruction
// miss term (RI/L)·φI·βm. Instruction hits overlap execution through
// pipelining and contribute nothing, exactly as in the paper.
//
//lint:ignore unusedexport paper: Eq. (2) plus the §3.4 instruction-miss term; TestICacheExecutionTime checks it
func ExecutionTimeWithICache(p ICacheParams) float64 {
	return ExecutionTime(p.Params) + (p.RI/p.L)*p.PhiI*p.BetaM
}

// ICacheTradeoff prices doubling the bus against instruction-cache
// hit ratio: the same Eq. (6) machinery applied to the instruction
// stream (a full-blocking instruction fetch with no flushes — I-caches
// are read-only, so α = 0 and the write-buffer feature is meaningless
// for them).
//
//lint:ignore unusedexport paper: Eq. (6) on the instruction stream (§3.4, §4.5); TestICacheTradeoffMatchesDataCacheAtAlphaZero checks it
func ICacheTradeoff(baseHR float64, l, d, betaM float64) (Tradeoff, error) {
	// Read-only stream: α = 0, full stalling fetch.
	num := (l/d)*betaM - 1
	den := (l/(2*d))*betaM - 1
	if l < 2*d {
		return Tradeoff{}, fmt.Errorf("core: doubling bus needs L >= 2D (L=%g, D=%g)", l, d)
	}
	if den <= 0 {
		return Tradeoff{}, fmt.Errorf("core: per-miss cost %g not positive", den)
	}
	t, err := DeltaHR(baseHR, num/den)
	if err != nil {
		return Tradeoff{}, err
	}
	t.Feature = FeatureDoubleBus
	return t, nil
}
