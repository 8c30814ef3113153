// Package trace generates synthetic memory-address traces.
//
// The paper (Chen & Somani, ISCA '94) measures processor stalling factors
// by trace-driven simulation over six SPEC92 programs (nasa7, swm256,
// wave5, ear, doduc, hydro2d). Those traces are not redistributable, so
// this package provides parameterized workload models that reproduce the
// trace properties the stall-factor experiment actually depends on:
//
//   - the density of load/store instructions in the dynamic instruction
//     stream (which sets the inter-reference instruction distance ΔC used
//     by Eq. (8) of the paper),
//   - spatial locality (how often consecutive references fall on the same
//     cache line, which drives second-access-to-missing-line stalls), and
//   - temporal locality / working-set size (which sets the miss ratio of
//     the 8 KB two-way cache used in Figure 1).
//
// All generators are deterministic: the same seed yields the same trace.
package trace

// Ref is a single data-memory reference in an address trace.
//
// Instr is the index of the dynamic instruction that issues the
// reference. Instruction indices are strictly non-decreasing along a
// trace and may skip values: a gap of k between consecutive references
// models k-1 intervening non-memory instructions, each of which takes
// one processor cycle (assumption 4 of the paper's §3.1).
type Ref struct {
	Instr uint64 // dynamic instruction index issuing this reference
	Addr  uint64 // byte address
	Size  uint8  // access size in bytes (1, 2, 4 or 8)
	Write bool   // true for a store, false for a load
}

// Line returns the cache-line index of the reference for a line size of
// lineSize bytes. lineSize must be a power of two.
func (r Ref) Line(lineSize int) uint64 {
	return r.Addr / uint64(lineSize)
}

// Source is a stream of memory references.
//
// Next returns the next reference in the trace and true, or a zero Ref
// and false when the trace is exhausted. Implementations are not safe
// for concurrent use.
type Source interface {
	Next() (Ref, bool)
}

// Collect drains up to n references from src into a slice. If src ends
// early the shorter trace is returned. A non-positive n collects nothing.
func Collect(src Source, n int) []Ref {
	if n <= 0 {
		return nil
	}
	refs := make([]Ref, 0, n)
	for len(refs) < n {
		r, ok := src.Next()
		if !ok {
			break
		}
		refs = append(refs, r)
	}
	return refs
}

// Stats summarizes a trace. It is produced by Summarize and used by
// tests and the tracegen CLI to sanity-check generated workloads.
type Stats struct {
	Refs         int     // number of memory references
	Instructions uint64  // dynamic instruction count (last Instr + 1)
	Writes       int     // number of stores
	WriteFrac    float64 // Writes / Refs
	RefPerInstr  float64 // Refs / Instructions: the load/store density
	UniqueLines  int     // distinct 32-byte lines touched
	SameLineFrac float64 // fraction of refs on the same 32-byte line as the previous ref
}

// Summarize computes summary statistics for a trace, using a 32-byte
// line for the locality measures (the line size of Figure 1).
func Summarize(refs []Ref) Stats {
	var s Stats
	s.Refs = len(refs)
	if len(refs) == 0 {
		return s
	}
	const line = 32
	lines := make(map[uint64]struct{})
	var prev uint64
	same := 0
	for i, r := range refs {
		if r.Write {
			s.Writes++
		}
		l := r.Line(line)
		lines[l] = struct{}{}
		if i > 0 && l == prev {
			same++
		}
		prev = l
	}
	s.Instructions = refs[len(refs)-1].Instr + 1
	s.WriteFrac = float64(s.Writes) / float64(s.Refs)
	s.RefPerInstr = float64(s.Refs) / float64(s.Instructions)
	s.UniqueLines = len(lines)
	s.SameLineFrac = float64(same) / float64(max(1, s.Refs-1))
	return s
}
