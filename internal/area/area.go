// Package area models on-chip cache area and package pin count, the
// two costs §5.2 of the paper trades against each other: "we can
// increase a relatively smaller amount of chip area in the cache memory
// to trade for the processor pin counts and memory data bus width."
//
// The cache area model follows the register-bit-equivalent (rbe)
// accounting of Mulder, Quach & Flynn (IEEE JSSC 1991), the standard
// area model of the paper's era: every storage bit is costed in units
// of a six-transistor register cell, with SRAM data bits cheaper than
// register bits and per-line overhead (tag, status) charged explicitly.
// Absolute calibration is not the point — the *ratios* between
// configurations drive the tradeoff, and those depend only on the bit
// counts.
package area

import (
	"fmt"
	"math"
)

// rbe cost constants (Mulder et al., Table at §III): an SRAM cell costs
// 0.6 rbe; each line also pays a fixed overhead for comparators, drive
// and sense amplifiers folded into a per-bit factor.
const (
	sramBitRBE   = 0.6 // area of one SRAM bit, in register-bit equivalents
	lineOverhead = 6.0 // per-line control overhead (valid, dirty, LRU, drivers), rbe
)

// CacheGeometry describes the storage a cache needs.
type CacheGeometry struct {
	Size     int // data capacity in bytes
	LineSize int // bytes per line
	Assoc    int // ways (0 = fully associative)
	AddrBits int // physical address width (default 32)
}

// Validate reports impossible geometries.
func (g CacheGeometry) Validate() error {
	switch {
	case g.Size <= 0 || g.LineSize <= 0:
		return fmt.Errorf("area: non-positive size (%d) or line (%d)", g.Size, g.LineSize)
	case g.LineSize > g.Size:
		return fmt.Errorf("area: line %d exceeds size %d", g.LineSize, g.Size)
	case g.Assoc < 0:
		return fmt.Errorf("area: negative associativity")
	}
	return nil
}

// Lines returns the number of cache lines.
func (g CacheGeometry) Lines() int { return g.Size / g.LineSize }

// TagBits returns the tag width per line: address bits minus the
// offset and index bits (fully associative caches keep the whole
// line-address as tag).
func (g CacheGeometry) TagBits() int {
	addr := g.AddrBits
	if addr == 0 {
		addr = 32
	}
	offset := int(math.Round(math.Log2(float64(g.LineSize))))
	assoc := g.Assoc
	if assoc == 0 {
		assoc = g.Lines()
	}
	sets := g.Lines() / assoc
	index := 0
	if sets > 1 {
		index = int(math.Round(math.Log2(float64(sets))))
	}
	bits := addr - offset - index
	if bits < 0 {
		bits = 0
	}
	return bits
}

// RBE returns the cache's storage area in register-bit equivalents:
// data bits plus per-line tag and status overhead. Larger lines
// amortize the tag overhead — the Alpert & Flynn cost-effectiveness
// argument the paper cites ([6]).
func RBE(g CacheGeometry) (float64, error) {
	if err := g.Validate(); err != nil {
		return 0, err
	}
	lines := float64(g.Lines())
	dataBits := float64(g.Size * 8)
	tagBits := lines * float64(g.TagBits())
	return (dataBits+tagBits)*sramBitRBE + lines*lineOverhead, nil
}

// Pins models the package pins of the processor's external interface:
// data bus, address bus, and a fixed control group. The paper's
// tradeoff moves only the data-bus term.
type Pins struct {
	DataBits int // external data bus width in bits
	AddrBits int // external address bus width in bits
	Control  int // clocks, bus control, interrupts, power approximation
}

// Total returns the pin count.
func (p Pins) Total() int { return p.DataBits + p.AddrBits + p.Control }

// DoubleBus returns the pin configuration with a doubled data bus.
func (p Pins) DoubleBus() Pins {
	q := p
	q.DataBits *= 2
	return q
}

// Exchange quantifies one §5.2 trade: growing the cache from small to
// large (same line size and associativity) instead of doubling a
// dataBits-wide external bus.
type Exchange struct {
	SmallRBE  float64 // area of the small cache
	LargeRBE  float64 // area of the large cache
	DeltaRBE  float64 // additional chip area the big cache costs
	AreaRatio float64 // LargeRBE / SmallRBE
	PinsSaved int     // data pins the narrow bus saves
}

// BusVsCache evaluates the exchange for the given geometries and bus.
func BusVsCache(small, large CacheGeometry, bus Pins) (Exchange, error) {
	s, err := RBE(small)
	if err != nil {
		return Exchange{}, err
	}
	l, err := RBE(large)
	if err != nil {
		return Exchange{}, err
	}
	if l < s {
		return Exchange{}, fmt.Errorf("area: large cache (%g rbe) smaller than small cache (%g rbe)", l, s)
	}
	return Exchange{
		SmallRBE:  s,
		LargeRBE:  l,
		DeltaRBE:  l - s,
		AreaRatio: l / s,
		PinsSaved: bus.DoubleBus().DataBits - bus.DataBits,
	}, nil
}
