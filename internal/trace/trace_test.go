package trace

import (
	"testing"
	"testing/quick"
)

func TestRNGDeterministic(t *testing.T) {
	a, b := NewRNG(42), NewRNG(42)
	for i := 0; i < 1000; i++ {
		if av, bv := a.Uint64(), b.Uint64(); av != bv {
			t.Fatalf("draw %d: %d != %d", i, av, bv)
		}
	}
}

func TestRNGZeroSeedUsable(t *testing.T) {
	r := NewRNG(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed produced a stuck generator")
	}
}

func TestRNGIntnRange(t *testing.T) {
	r := NewRNG(7)
	for i := 0; i < 10000; i++ {
		if v := r.Intn(13); v < 0 || v >= 13 {
			t.Fatalf("Intn(13) = %d out of range", v)
		}
	}
}

func TestRNGIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	NewRNG(1).Intn(0)
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(9)
	for i := 0; i < 10000; i++ {
		if f := r.Float64(); f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

func TestRNGGeometricMean(t *testing.T) {
	r := NewRNG(11)
	const n = 50000
	var sum uint64
	for i := 0; i < n; i++ {
		sum += r.Geometric(4)
	}
	mean := float64(sum) / n
	if mean < 3.2 || mean > 4.8 {
		t.Fatalf("Geometric(4) sample mean = %.2f, want ~4", mean)
	}
}

func TestRNGGeometricMinimumOne(t *testing.T) {
	r := NewRNG(3)
	for i := 0; i < 1000; i++ {
		if g := r.Geometric(0.1); g != 1 {
			t.Fatalf("Geometric(0.1) = %d, want 1", g)
		}
	}
}

func TestRefLine(t *testing.T) {
	r := Ref{Addr: 100}
	if got := r.Line(32); got != 3 {
		t.Fatalf("Line(32) = %d, want 3", got)
	}
	if got := r.Line(8); got != 12 {
		t.Fatalf("Line(8) = %d, want 12", got)
	}
}

func TestSequentialWraps(t *testing.T) {
	src := Sequential(SequentialConfig{Seed: 1, Base: 0x1000, Length: 64, Stride: 8, ElemSize: 8})
	refs := Collect(src, 20)
	if len(refs) != 20 {
		t.Fatalf("got %d refs, want 20", len(refs))
	}
	for i, r := range refs {
		want := uint64(0x1000) + uint64(i%8)*8
		if r.Addr != want {
			t.Fatalf("ref %d: addr %#x, want %#x", i, r.Addr, want)
		}
	}
}

func TestSequentialDefaults(t *testing.T) {
	src := Sequential(SequentialConfig{Seed: 1})
	refs := Collect(src, 10)
	for i, r := range refs {
		if r.Size != 8 {
			t.Fatalf("ref %d: size %d, want default 8", i, r.Size)
		}
	}
}

func TestInstrMonotonic(t *testing.T) {
	for _, name := range Programs() {
		refs := Collect(MustProgram(name, 1), 20000)
		for i := 1; i < len(refs); i++ {
			if refs[i].Instr <= refs[i-1].Instr {
				t.Fatalf("%s: instr not strictly increasing at %d: %d then %d",
					name, i, refs[i-1].Instr, refs[i].Instr)
			}
		}
	}
}

func TestProgramsDeterministic(t *testing.T) {
	for _, name := range Programs() {
		a := Collect(MustProgram(name, 99), 5000)
		b := Collect(MustProgram(name, 99), 5000)
		if len(a) != len(b) {
			t.Fatalf("%s: lengths differ", name)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: ref %d differs: %+v vs %+v", name, i, a[i], b[i])
			}
		}
	}
}

func TestProgramsDifferBySeed(t *testing.T) {
	a := Collect(MustProgram(Nasa7, 1), 1000)
	b := Collect(MustProgram(Nasa7, 2), 1000)
	same := 0
	for i := range a {
		if a[i].Addr == b[i].Addr {
			same++
		}
	}
	if same == len(a) {
		t.Fatal("different seeds produced identical traces")
	}
}

func TestProgramProfiles(t *testing.T) {
	// Every program model must look like a plausible load/store stream:
	// 20-45% of instructions are memory references, stores are 15-55% of
	// references, and spatial locality spans a wide range across models.
	for _, name := range Programs() {
		refs := Collect(MustProgram(name, 7), 100000)
		s := Summarize(refs)
		if s.RefPerInstr < 0.20 || s.RefPerInstr > 0.45 {
			t.Errorf("%s: refs/instr = %.3f, want in [0.20, 0.45]", name, s.RefPerInstr)
		}
		if s.WriteFrac < 0.10 || s.WriteFrac > 0.55 {
			t.Errorf("%s: write fraction = %.3f, want in [0.10, 0.55]", name, s.WriteFrac)
		}
		if s.UniqueLines < 100 {
			t.Errorf("%s: only %d unique lines touched", name, s.UniqueLines)
		}
	}
}

func TestSpatialLocalityOrdering(t *testing.T) {
	// Unit-stride-heavy nasa7 must show much higher same-line locality
	// than the working-set-dominated doduc.
	nasa := Summarize(Collect(MustProgram(Nasa7, 5), 100000))
	dod := Summarize(Collect(MustProgram(Doduc, 5), 100000))
	if nasa.SameLineFrac <= dod.SameLineFrac {
		t.Fatalf("nasa7 same-line %.3f <= doduc same-line %.3f", nasa.SameLineFrac, dod.SameLineFrac)
	}
}

func TestNewProgramUnknown(t *testing.T) {
	if _, err := NewProgram("gcc", 1); err == nil {
		t.Fatal("NewProgram(gcc) succeeded, want error")
	}
}

func TestMustProgramPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustProgram did not panic on unknown name")
		}
	}()
	MustProgram("nope", 1)
}

// TestValidNames pins ValidWorkloads, the one name check every hit
// source and stall grid runs: unknown names come back sorted, and
// every workload — the six programs and zipf — is known.
func TestValidNames(t *testing.T) {
	unknown := ValidWorkloads([]string{"nasa7", "zzz", "zipf", "ear", "aaa"})
	if len(unknown) != 2 || unknown[0] != "aaa" || unknown[1] != "zzz" {
		t.Fatalf("ValidWorkloads = %v, want [aaa zzz]", unknown)
	}
	if got := ValidWorkloads(Workloads()); len(got) != 0 {
		t.Fatalf("ValidWorkloads(Workloads()) = %v, want empty", got)
	}
}

func TestCollectNonPositive(t *testing.T) {
	if refs := Collect(Sequential(SequentialConfig{Seed: 1}), 0); refs != nil {
		t.Fatalf("Collect(0) = %v, want nil", refs)
	}
	if refs := Collect(Sequential(SequentialConfig{Seed: 1}), -3); refs != nil {
		t.Fatalf("Collect(-3) = %v, want nil", refs)
	}
}

func TestStencilAddressesWithinGrid(t *testing.T) {
	cfg := Stencil2DConfig{Seed: 1, Base: 0x4000, Rows: 16, Cols: 16, ElemSize: 8, Points: 5, WriteBack: true}
	refs := Collect(Stencil2D(cfg), 5000)
	lo, hi := uint64(0x4000), uint64(0x4000)+uint64(16*16*8)
	writes := 0
	for i, r := range refs {
		if r.Addr < lo || r.Addr >= hi {
			t.Fatalf("ref %d addr %#x outside grid [%#x,%#x)", i, r.Addr, lo, hi)
		}
		if r.Write {
			writes++
		}
	}
	// One write per 6 refs (5 reads + 1 write).
	frac := float64(writes) / float64(len(refs))
	if frac < 0.12 || frac > 0.22 {
		t.Fatalf("stencil write fraction %.3f, want ~1/6", frac)
	}
}

func TestPointerChaseVisitsAllNodes(t *testing.T) {
	const nodes = 64
	src := PointerChase(PointerChaseConfig{Seed: 3, Base: 0, Nodes: nodes, NodeSize: 64, Fields: 0})
	seen := make(map[uint64]bool)
	for i := 0; i < nodes; i++ {
		r, _ := src.Next()
		seen[r.Addr/64] = true
	}
	if len(seen) != nodes {
		t.Fatalf("pointer chase visited %d/%d nodes in one period", len(seen), nodes)
	}
}

func TestWorkingSetBounds(t *testing.T) {
	cfg := WorkingSetConfig{Seed: 5, Base: 0x9000_0000, SetBytes: 8 << 10, HeapBytes: 1 << 20, Migrate: 0.001, ElemSize: 8}
	refs := Collect(WorkingSet(cfg), 20000)
	for i, r := range refs {
		if r.Addr < cfg.Base || r.Addr >= cfg.Base+cfg.HeapBytes {
			t.Fatalf("ref %d addr %#x outside heap", i, r.Addr)
		}
		if r.Addr%8 != 0 {
			t.Fatalf("ref %d addr %#x not aligned to elem size", i, r.Addr)
		}
	}
}

func TestMixDrainsExhaustedParts(t *testing.T) {
	a := finite(Sequential(SequentialConfig{Seed: 1, Base: 0x1000}), 5)
	b := finite(Sequential(SequentialConfig{Seed: 2, Base: 0x2000}), 5)
	src := Mix(1, 2, MixConfig{Source: a, Weight: 1}, MixConfig{Source: b, Weight: 1})
	refs := Collect(src, 100)
	if len(refs) != 10 {
		t.Fatalf("Mix yielded %d refs, want 10 total", len(refs))
	}
}

func TestMixEmpty(t *testing.T) {
	if _, ok := Mix(1, 4).Next(); ok {
		t.Fatal("empty Mix yielded a ref")
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Refs != 0 || s.Instructions != 0 {
		t.Fatalf("Summarize(nil) = %+v, want zeros", s)
	}
}

func TestLinePropertyQuick(t *testing.T) {
	// Property: line index is consistent with integer division and two
	// addresses on the same line differ by less than the line size.
	f := func(addr uint64, shift uint8) bool {
		ls := 1 << (3 + shift%6) // 8..256
		r := Ref{Addr: addr}
		return r.Line(ls) == addr/uint64(ls)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGeometricPropertyQuick(t *testing.T) {
	// Property: Geometric always returns at least 1.
	f := func(seed uint64, m uint8) bool {
		r := NewRNG(seed)
		return r.Geometric(float64(m%30)) >= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// replay is a finite Source over a materialized trace.
type replay []Ref

func (r *replay) Next() (Ref, bool) {
	if len(*r) == 0 {
		return Ref{}, false
	}
	ref := (*r)[0]
	*r = (*r)[1:]
	return ref, true
}

// finite returns the first n references of src as a Source that ends.
func finite(src Source, n int) Source {
	r := replay(Collect(src, n))
	return &r
}
