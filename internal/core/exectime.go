package core

// ExecutionTime evaluates the CPU execution-time model of Eq. (2):
//
//	X = (E − Λm) + (R/L)·φ·βm + α·(R/D)·βm + W·βm
//
// in processor clock cycles. The terms are, in order: one cycle for
// every non-missing instruction (load/store hits included, by the
// pipelining assumption of §3.1), the read-miss stalls, the dirty-line
// flush stalls (no write buffers), and the write-around miss cycles.
func ExecutionTime(p Params) float64 {
	return p.E - p.Misses() +
		(p.R/p.L)*p.Phi*p.BetaM +
		p.Alpha*(p.R/p.D)*p.BetaM +
		p.W*p.BetaM
}

// ExecutionTimeWithBuffers is Eq. (2) with ideal read-bypassing write
// buffers: the flush term α(R/D)βm and the write-around term W·βm are
// completely hidden (§4.3, Table 3).
//
//lint:ignore unusedexport paper: Eq. (2) with ideal write buffers (§4.3, Table 3); TestExecutionTimeWithBuffersDropsWriteTerms checks it
func ExecutionTimeWithBuffers(p Params) float64 {
	return p.E - p.Misses() + (p.R/p.L)*p.Phi*p.BetaM
}

// ExecutionTimePipelined is Eq. (2) for a pipelined memory system with
// readiness interval q: each full-blocking miss stalls βp = βm +
// q(L/D − 1) cycles (Eq. 9), and each flushed line likewise occupies βp
// (§4.4, Table 3).
//
//lint:ignore unusedexport paper: Eq. (2) with the Eq. (9) fill time βp (§4.4, Table 3); TestExecutionTimePipelinedEq9 checks it
func ExecutionTimePipelined(p Params, q float64) float64 {
	bp := BetaP(p.BetaM, q, p.L, p.D)
	return p.E - p.Misses() +
		(p.R/p.L)*bp +
		p.Alpha*(p.R/p.L)*bp +
		p.W*p.BetaM
}

// MemoryDelayCycles returns the total stall cycles of Eq. (2) — the
// read-miss, flush and write-around terms, i.e. X − (E − Λm). In the
// paper's accounting a missing load/store contributes no base cycle;
// its whole cost appears in these stall terms.
func MemoryDelayCycles(p Params) float64 { return ExecutionTime(p) - (p.E - p.Misses()) }

// MeanMemoryDelay returns the mean memory delay time per data memory
// reference (§4.5):
//
//	(φ·(R/L)·βm + α·(R/D)·βm + W·βm + Λh) / (Λh + Λm)
//
// where Λh is derived from the total number of data references. The
// paper proves the tradeoff model equates exactly this quantity between
// two systems, which makes it independent of the non-load/store
// instruction mix; TestMeanDelayEquivalence exercises that identity.
//
//lint:ignore unusedexport paper: the mean memory delay of Eq. (10) (§4.5); TestMeanDelayEquivalence checks it
func MeanMemoryDelay(p Params, totalRefs float64) float64 {
	lm := p.Misses()
	lh := totalRefs - lm
	if totalRefs <= 0 || lh < 0 {
		return 0
	}
	stall := (p.R/p.L)*p.Phi*p.BetaM + p.Alpha*(p.R/p.D)*p.BetaM + p.W*p.BetaM
	return (stall + lh) / totalRefs
}
