// Package core implements the unified architectural tradeoff
// methodology of Chen & Somani (ISCA 1994).
//
// The methodology prices architectural features — external data-bus
// width, processor stalling features, read-bypassing write buffers,
// pipelined memory systems, and cache line size — in a single currency:
// cache hit ratio. Two systems that differ in one feature have the same
// performance exactly when their mean memory delay per reference is
// equal (§4.5); solving that equality yields the hit-ratio difference
// ΔHR the feature is worth, and hence the cache size (chip area) it can
// replace.
//
// The package follows the paper's notation (Table 1):
//
//	D   external data-bus width in bytes
//	L   cache line size in bytes
//	βm  memory cycle time for a D-byte transfer, in CPU clocks
//	E   instructions executed
//	R   bytes read from memory on misses
//	W   write-around miss count
//	α   flush ratio (dirty-line bytes copied back per byte fetched)
//	φ   stalling factor (Table 2): per-miss read stall is φ·βm
//	q   pipelined-memory readiness interval (Eq. 9)
package core

import (
	"fmt"
	"math"
)

// Params characterizes one system design point together with the
// application running on it — the tuple {E, R, W, α, φ} of §3.1 plus
// the hardware parameters {D, L, βm}.
type Params struct {
	E     float64 // instructions executed
	R     float64 // bytes read in full bus width on read misses
	W     float64 // write-around miss instructions using the bus
	Alpha float64 // cache line flush ratio α ∈ [0, 1]
	Phi   float64 // stalling factor φ (L/D for a full-blocking cache)
	D     float64 // external data-bus width in bytes
	L     float64 // cache line size in bytes
	BetaM float64 // memory cycle time βm in clocks per D-byte transfer
}

// Validate reports parameter combinations outside the model's domain.
func (p Params) Validate() error {
	switch {
	case p.E <= 0:
		return fmt.Errorf("core: E = %g, want > 0", p.E)
	case p.R < 0 || p.W < 0:
		return fmt.Errorf("core: negative R (%g) or W (%g)", p.R, p.W)
	case !validAlpha(p.Alpha):
		return fmt.Errorf("core: α = %g, want in [0, 1]", p.Alpha)
	case p.D <= 0 || p.L <= 0:
		return fmt.Errorf("core: non-positive D (%g) or L (%g)", p.D, p.L)
	case p.L < p.D:
		return fmt.Errorf("core: L = %g smaller than D = %g", p.L, p.D)
	case p.BetaM < 1:
		return fmt.Errorf("core: βm = %g, want >= 1", p.BetaM)
	case p.Phi < 0 || p.Phi > p.L/p.D:
		return fmt.Errorf("core: φ = %g outside [0, L/D = %g] (Table 2)", p.Phi, p.L/p.D)
	case p.Misses() > p.E:
		return fmt.Errorf("core: more missing load/stores (%g) than instructions (%g)", p.Misses(), p.E)
	}
	return nil
}

// Misses returns Λm = R/L + W, the number of load/store instructions
// that miss in the data cache (Eq. 1). Under write-allocate W is zero
// and write-miss fetches are part of R.
func (p Params) Misses() float64 { return p.R/p.L + p.W }

// WithFullStall returns a copy of p with φ set to the full-blocking
// value L/D.
func (p Params) WithFullStall() Params {
	p.Phi = p.L / p.D
	return p
}

// SFromHitRatio returns s = Λh/Λm for a data cache with the given hit
// ratio, the quantity Eqs. (4)–(6) are parameterized by: MR = 1/(s+1).
func SFromHitRatio(hr float64) (float64, error) {
	if !validFraction(hr) {
		return 0, fmt.Errorf("core: hit ratio %g, want in (0, 1)", hr)
	}
	return hr / (1 - hr), nil
}

// validFraction reports whether v is a usable probability-like value.
func validFraction(v float64) bool { return !math.IsNaN(v) && v > 0 && v < 1 }

// validAlpha reports whether v lies in the closed unit interval — the
// domain of the flush ratio α and of local hit ratios, where both
// endpoints are physical (never-dirty and always-dirty caches).
func validAlpha(v float64) bool { return !math.IsNaN(v) && v >= 0 && v <= 1 }

// validHitRatio reports whether v is a usable cache hit ratio: a
// fraction in (0, 1), or exactly zero (a cacheless or cold system).
func validHitRatio(v float64) bool { return v == 0 || validFraction(v) }

// approxEqual reports whether a and b agree to within one part in 1e12
// (absolute near zero). It is the float discipline's alternative to
// exact ==/!= between model quantities, which the floatcmp analyzer
// rejects: two mathematically equal delays routinely differ in their
// last ulp after Eqs. (1)–(19) arithmetic.
func approxEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-12*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}
