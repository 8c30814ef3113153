// Package memory models the main-memory and bus timing of the paper.
//
// The memory system transfers D bytes (the external data-bus width) per
// memory cycle of βm processor clocks, with the same cycle time for
// reads and writes (§3.1 assumption 6). A line fill of L bytes therefore
// takes (L/D)·βm cycles non-pipelined, or — when the memory system is
// pipelined with readiness interval q — βp = βm + q·(L/D − 1) cycles
// (Eq. (9) of Chen & Somani, ISCA '94).
//
// The model exposes per-chunk arrival times so the stall engine in
// internal/stall can decide, for each processor access during a fill,
// whether the bytes it needs have arrived (the distinction between the
// BNL2/BNL3 stalling features and BL/BNL1).
package memory

import "fmt"

// FillOrder selects the order in which a line's chunks arrive.
type FillOrder int

const (
	// RequestedFirst delivers the chunk the processor asked for first,
	// then wraps around the line — the paper's §3.2 behaviour ("the
	// cache first requests the missed data from the memory").
	RequestedFirst FillOrder = iota
	// Sequential delivers chunks in address order regardless of which
	// word missed, as simpler memory controllers do. Used by the
	// fill-order ablation: the requested word then arrives late for
	// misses near the end of a line.
	Sequential
)

func (f FillOrder) String() string {
	switch f {
	case RequestedFirst:
		return "requested-first"
	case Sequential:
		return "sequential"
	default:
		return fmt.Sprintf("FillOrder(%d)", int(f))
	}
}

// Config describes one memory system design point.
type Config struct {
	BetaM     int64     // memory cycle time βm, in processor clocks per D-byte transfer
	BusWidth  int       // external data-bus width D, in bytes (4, 8, 16 or 32)
	Pipelined bool      // whether back-to-back requests pipeline
	Q         int64     // readiness interval q: clocks before the next pipelined request may begin
	Order     FillOrder // chunk delivery order (default RequestedFirst)
}

// Validate checks the configuration. The paper restricts D to
// {4, 8, 16, 32} (Table 1) and plots βm ≥ 2 (the "design limit", §5.1).
func (c Config) Validate() error {
	switch c.BusWidth {
	case 4, 8, 16, 32:
	default:
		return fmt.Errorf("memory: bus width %d, want one of 4, 8, 16, 32", c.BusWidth)
	}
	if c.BetaM < 1 {
		return fmt.Errorf("memory: βm = %d, want >= 1", c.BetaM)
	}
	if c.Pipelined && c.Q < 1 {
		return fmt.Errorf("memory: pipelined with q = %d, want >= 1", c.Q)
	}
	return nil
}

// Model computes fill and write timings for a configuration. The zero
// value is not usable; construct with New.
type Model struct {
	cfg Config
}

// New returns a Model for cfg, or an error if cfg is invalid.
func New(cfg Config) (*Model, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Model{cfg: cfg}, nil
}

// Chunks returns the number of bus transfers needed for lineSize bytes
// (L/D, minimum 1).
func (m *Model) Chunks(lineSize int) int {
	n := lineSize / m.cfg.BusWidth
	if n < 1 {
		n = 1
	}
	return n
}

// LineTime returns the total cycles to move an L-byte line: (L/D)·βm
// non-pipelined, or Eq. (9)'s βp = βm + q·(L/D − 1) pipelined.
func (m *Model) LineTime(lineSize int) int64 {
	n := int64(m.Chunks(lineSize))
	if m.cfg.Pipelined {
		return m.cfg.BetaM + m.cfg.Q*(n-1)
	}
	return n * m.cfg.BetaM
}

// Fill is a scheduled line fill: it knows when each D-byte chunk of the
// line arrives, in requested-word-first order. With a bus-locked or
// bus-not-locked cache the processor resumes when the requested chunk
// arrives, while the rest of the line streams in (§3.2).
type Fill struct {
	Start     int64  // cycle the fill was requested
	Line      uint64 // line index being filled
	chunks    int    // number of D-byte chunks
	critical  int    // chunk index (within the line) the processor asked for
	betaM     int64
	q         int64
	pipelined bool
	order     FillOrder
}

// NewFill schedules a fill for the lineSize-byte line containing the
// requested chunk criticalChunk (0-based chunk index within the line,
// i.e. offsetInLine / D). Chunks are delivered starting at the critical
// chunk and wrapping around the line.
func (m *Model) NewFill(start int64, lineIndex uint64, lineSize, criticalChunk int) Fill {
	n := m.Chunks(lineSize)
	return Fill{
		Start:     start,
		Line:      lineIndex,
		chunks:    n,
		critical:  wrapChunk(criticalChunk, n),
		betaM:     m.cfg.BetaM,
		q:         m.cfg.Q,
		pipelined: m.cfg.Pipelined,
		order:     m.cfg.Order,
	}
}

// arrivalByOrder returns the cycle at which the k-th delivered chunk
// (k = 0 is the critical chunk) arrives.
func (f Fill) arrivalByOrder(k int) int64 {
	if f.pipelined {
		return f.Start + f.betaM + int64(k)*f.q
	}
	return f.Start + int64(k+1)*f.betaM
}

// Complete returns the cycle at which the entire line has arrived.
func (f Fill) Complete() int64 { return f.arrivalByOrder(f.chunks - 1) }

// CriticalReady returns the cycle at which the requested chunk arrives
// (the earliest moment a BL/BNL cache lets the processor continue).
// Under a Sequential fill the requested word may arrive late.
func (f Fill) CriticalReady() int64 { return f.ChunkReady(f.critical) }

// ChunkReady returns the cycle at which chunk index c (within the
// line) arrives, under the fill's delivery order. Out-of-range input
// — including a negative index from a sign-truncated address offset on
// a 32-bit platform — is wrapped into the line, so the result is never
// earlier than the first chunk's arrival.
func (f Fill) ChunkReady(c int) int64 {
	c = wrapChunk(c, f.chunks)
	if f.order == Sequential {
		return f.arrivalByOrder(c)
	}
	order := c - f.critical
	if order < 0 {
		order += f.chunks
	}
	return f.arrivalByOrder(order)
}

// wrapChunk reduces a chunk index into [0, chunks), mapping negative
// input (Go's % keeps the dividend's sign) into the line instead of
// letting it produce an arrival time before the fill started.
func wrapChunk(c, chunks int) int {
	c %= chunks
	if c < 0 {
		c += chunks
	}
	return c
}

// ByteReady returns the cycle at which the byte at offsetInLine is
// available, given the bus width used to schedule the fill.
func (f Fill) ByteReady(offsetInLine, busWidth int) int64 {
	return f.ChunkReady(offsetInLine / busWidth)
}
