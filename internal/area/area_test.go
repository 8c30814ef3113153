package area

import (
	"testing"
	"testing/quick"
)

func g8K() CacheGeometry { return CacheGeometry{Size: 8 << 10, LineSize: 32, Assoc: 2} }

func TestValidate(t *testing.T) {
	if err := g8K().Validate(); err != nil {
		t.Fatalf("valid geometry rejected: %v", err)
	}
	bad := []CacheGeometry{
		{Size: 0, LineSize: 32},
		{Size: 1024, LineSize: 0},
		{Size: 64, LineSize: 128},
		{Size: 1024, LineSize: 32, Assoc: -1},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("bad geometry %d accepted", i)
		}
	}
}

func TestTagBits(t *testing.T) {
	// 8K, 32B lines, 2-way: 256 lines, 128 sets → 32 − 5 − 7 = 20 bits.
	if got := g8K().TagBits(); got != 20 {
		t.Fatalf("tag bits = %d, want 20", got)
	}
	// Fully associative: no index bits → 32 − 5 = 27.
	fa := CacheGeometry{Size: 8 << 10, LineSize: 32, Assoc: 0}
	if got := fa.TagBits(); got != 27 {
		t.Fatalf("fully associative tag bits = %d, want 27", got)
	}
	// Wider addresses widen tags.
	w := g8K()
	w.AddrBits = 40
	if got := w.TagBits(); got != 28 {
		t.Fatalf("40-bit tag bits = %d, want 28", got)
	}
}

func TestRBEGrowsWithSize(t *testing.T) {
	small, err := RBE(g8K())
	if err != nil {
		t.Fatal(err)
	}
	big, err := RBE(CacheGeometry{Size: 32 << 10, LineSize: 32, Assoc: 2})
	if err != nil {
		t.Fatal(err)
	}
	if big <= small {
		t.Fatalf("32K rbe %g not above 8K rbe %g", big, small)
	}
	// Area is dominated by data bits, so 4x size ≈ 4x area.
	if ratio := big / small; ratio < 3.5 || ratio > 4.5 {
		t.Fatalf("area ratio %g, want ≈4", ratio)
	}
}

func TestLargerLinesCutOverhead(t *testing.T) {
	// Alpert & Flynn: larger lines amortize tags.
	small := CacheGeometry{Size: 8 << 10, LineSize: 8, Assoc: 2}
	large := CacheGeometry{Size: 8 << 10, LineSize: 64, Assoc: 2}
	// overhead is the share of the area spent on tags and per-line
	// control rather than data.
	overhead := func(g CacheGeometry) float64 {
		total, err := RBE(g)
		if err != nil {
			t.Fatal(err)
		}
		return (total - float64(g.Size*8)*sramBitRBE) / total
	}
	oSmall, oLarge := overhead(small), overhead(large)
	if oLarge >= oSmall {
		t.Fatalf("64B-line overhead %.3f not below 8B-line overhead %.3f", oLarge, oSmall)
	}
	if oSmall < 0.05 {
		t.Fatalf("8B-line overhead %.3f implausibly small", oSmall)
	}
}

func TestRBERejectsBadGeometry(t *testing.T) {
	if _, err := RBE(CacheGeometry{}); err == nil {
		t.Fatal("zero geometry accepted")
	}
}

func TestPins(t *testing.T) {
	p := Pins{DataBits: 32, AddrBits: 32, Control: 40}
	if p.Total() != 104 {
		t.Fatalf("total pins %d, want 104", p.Total())
	}
	d := p.DoubleBus()
	if d.DataBits != 64 || d.Total() != 136 {
		t.Fatalf("doubled bus pins %+v", d)
	}
	if p.DataBits != 32 {
		t.Fatal("DoubleBus mutated receiver")
	}
}

func TestBusVsCacheExchange(t *testing.T) {
	small := g8K()
	large := CacheGeometry{Size: 32 << 10, LineSize: 32, Assoc: 2}
	ex, err := BusVsCache(small, large, Pins{DataBits: 32, AddrBits: 32, Control: 40})
	if err != nil {
		t.Fatal(err)
	}
	if ex.PinsSaved != 32 {
		t.Fatalf("pins saved = %d, want 32", ex.PinsSaved)
	}
	if ex.DeltaRBE <= 0 || ex.AreaRatio < 3.5 {
		t.Fatalf("exchange %+v implausible", ex)
	}
	if _, err := BusVsCache(large, small, Pins{DataBits: 32}); err == nil {
		t.Fatal("inverted exchange accepted")
	}
	if _, err := BusVsCache(CacheGeometry{}, large, Pins{}); err == nil {
		t.Fatal("bad small geometry accepted")
	}
	if _, err := BusVsCache(small, CacheGeometry{}, Pins{}); err == nil {
		t.Fatal("bad large geometry accepted")
	}
}

func TestRBEMonotoneQuick(t *testing.T) {
	// Property: doubling capacity at fixed line size never shrinks area,
	// and area is always positive.
	f := func(sizeExp, lineExp uint8) bool {
		size := 1 << (10 + sizeExp%8)
		line := 8 << (lineExp % 4)
		a := CacheGeometry{Size: size, LineSize: line, Assoc: 2}
		b := CacheGeometry{Size: size * 2, LineSize: line, Assoc: 2}
		ra, err1 := RBE(a)
		rb, err2 := RBE(b)
		if err1 != nil || err2 != nil {
			return false
		}
		return ra > 0 && rb > ra
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
