package memory

import (
	"testing"
	"testing/quick"
)

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		name string
		cfg  Config
		ok   bool
	}{
		{"valid 4-byte", Config{BetaM: 4, BusWidth: 4}, true},
		{"valid 32-byte pipelined", Config{BetaM: 10, BusWidth: 32, Pipelined: true, Q: 2}, true},
		{"bad width 3", Config{BetaM: 4, BusWidth: 3}, false},
		{"bad width 64", Config{BetaM: 4, BusWidth: 64}, false},
		{"zero beta", Config{BetaM: 0, BusWidth: 4}, false},
		{"pipelined without q", Config{BetaM: 4, BusWidth: 4, Pipelined: true}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("%s: unexpected error %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: want error", tc.name)
		}
	}
}

func TestChunks(t *testing.T) {
	m := newModel(t, Config{BetaM: 4, BusWidth: 4})
	if got := m.Chunks(32); got != 8 {
		t.Fatalf("Chunks(32) = %d, want 8", got)
	}
	if got := m.Chunks(4); got != 1 {
		t.Fatalf("Chunks(4) = %d, want 1", got)
	}
	if got := m.Chunks(2); got != 1 {
		t.Fatalf("Chunks(2) = %d, want 1 (sub-bus line)", got)
	}
}

func TestLineTimeNonPipelined(t *testing.T) {
	m := newModel(t, Config{BetaM: 5, BusWidth: 4})
	if got := m.LineTime(32); got != 40 {
		t.Fatalf("LineTime(32) = %d, want (32/4)*5 = 40", got)
	}
}

func TestLineTimeEq9(t *testing.T) {
	// Eq. (9): βp = βm + q(L/D − 1).
	m := newModel(t, Config{BetaM: 5, BusWidth: 4, Pipelined: true, Q: 2})
	if got := m.LineTime(32); got != 5+2*7 {
		t.Fatalf("pipelined LineTime(32) = %d, want 19", got)
	}
	// L = D: pipelining must make no difference (paper §4.4).
	if got, want := m.LineTime(4), newModel(t, Config{BetaM: 5, BusWidth: 4}).LineTime(4); got != want {
		t.Fatalf("L=D pipelined %d != non-pipelined %d", got, want)
	}
}

func TestPipeliningNeverSlower(t *testing.T) {
	// For q <= βm, the pipelined fill never takes longer.
	f := func(beta, q uint8, lineExp uint8) bool {
		b := int64(beta%30) + 1
		qq := int64(q)%b + 1    // 1..b
		L := 4 << (lineExp % 4) // 4..32
		np := newModel(t, Config{BetaM: b, BusWidth: 4})
		p := newModel(t, Config{BetaM: b, BusWidth: 4, Pipelined: true, Q: qq})
		return p.LineTime(L) <= np.LineTime(L)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFillChunkOrderNonPipelined(t *testing.T) {
	m := newModel(t, Config{BetaM: 10, BusWidth: 4})
	// 32-byte line = 8 chunks; critical chunk 5.
	f := m.NewFill(100, 7, 32, 5)
	if f.chunks != 8 {
		t.Fatalf("chunks = %d, want 8", f.chunks)
	}
	if got := f.CriticalReady(); got != 110 {
		t.Fatalf("critical ready at %d, want 110", got)
	}
	if got := f.ChunkReady(5); got != 110 {
		t.Fatalf("chunk 5 ready at %d, want 110", got)
	}
	// Wrap-around order: 5,6,7,0,1,2,3,4.
	if got := f.ChunkReady(6); got != 120 {
		t.Fatalf("chunk 6 ready at %d, want 120", got)
	}
	if got := f.ChunkReady(0); got != 100+4*10 {
		t.Fatalf("chunk 0 ready at %d, want 140", got)
	}
	if got := f.ChunkReady(4); got != 100+8*10 {
		t.Fatalf("chunk 4 ready at %d, want 180", got)
	}
	if got := f.Complete(); got != 180 {
		t.Fatalf("complete at %d, want 180", got)
	}
}

func TestFillPipelinedSchedule(t *testing.T) {
	m := newModel(t, Config{BetaM: 10, BusWidth: 4, Pipelined: true, Q: 2})
	f := m.NewFill(0, 0, 32, 0)
	if got := f.CriticalReady(); got != 10 {
		t.Fatalf("critical at %d, want 10", got)
	}
	if got := f.ChunkReady(1); got != 12 {
		t.Fatalf("chunk 1 at %d, want 12", got)
	}
	if got := f.Complete(); got != 10+2*7 {
		t.Fatalf("complete at %d, want 24 (Eq. 9)", got)
	}
}

func TestFillByteReady(t *testing.T) {
	m := newModel(t, Config{BetaM: 10, BusWidth: 4})
	f := m.NewFill(0, 0, 32, 0)
	if got := f.ByteReady(0, 4); got != 10 {
		t.Fatalf("byte 0 at %d, want 10", got)
	}
	if got := f.ByteReady(3, 4); got != 10 {
		t.Fatalf("byte 3 at %d, want 10 (same chunk)", got)
	}
	if got := f.ByteReady(4, 4); got != 20 {
		t.Fatalf("byte 4 at %d, want 20", got)
	}
	if got := f.ByteReady(31, 4); got != 80 {
		t.Fatalf("byte 31 at %d, want 80", got)
	}
}

func TestFillCriticalModuloChunks(t *testing.T) {
	m := newModel(t, Config{BetaM: 3, BusWidth: 4})
	f := m.NewFill(0, 0, 16, 9) // 4 chunks, critical 9%4 = 1
	if got := f.ChunkReady(1); got != 3 {
		t.Fatalf("chunk 1 at %d, want 3", got)
	}
}

func TestFillCompleteMatchesLineTime(t *testing.T) {
	// Property: Complete - Start == LineTime for any geometry, and the
	// critical chunk is always the first to arrive.
	f := func(beta, q uint8, lineExp, crit uint8, pipe bool) bool {
		b := int64(beta%20) + 1
		qq := int64(q%8) + 1
		L := 4 << (lineExp % 4)
		cfg := Config{BetaM: b, BusWidth: 4, Pipelined: pipe, Q: qq}
		m := newModel(t, cfg)
		fl := m.NewFill(1000, 1, L, int(crit))
		if fl.Complete()-fl.Start != m.LineTime(L) {
			return false
		}
		first := fl.CriticalReady()
		for c := 0; c < fl.chunks; c++ {
			if fl.ChunkReady(c) < first {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAllChunksDistinctArrivals(t *testing.T) {
	m := newModel(t, Config{BetaM: 7, BusWidth: 8})
	f := m.NewFill(0, 0, 64, 3)
	seen := map[int64]bool{}
	for c := 0; c < f.chunks; c++ {
		at := f.ChunkReady(c)
		if seen[at] {
			t.Fatalf("two chunks arrive at cycle %d", at)
		}
		seen[at] = true
	}
	if len(seen) != 8 {
		t.Fatalf("%d distinct arrivals, want 8", len(seen))
	}
}

func TestSequentialFillOrder(t *testing.T) {
	m := newModel(t, Config{BetaM: 10, BusWidth: 4, Order: Sequential})
	// 32-byte line, critical chunk 5: under sequential delivery chunk 0
	// arrives first and the requested word waits six transfers.
	f := m.NewFill(0, 0, 32, 5)
	if got := f.ChunkReady(0); got != 10 {
		t.Fatalf("chunk 0 at %d, want 10", got)
	}
	if got := f.CriticalReady(); got != 60 {
		t.Fatalf("critical (chunk 5) at %d, want 60", got)
	}
	if got := f.Complete(); got != 80 {
		t.Fatalf("complete at %d, want 80", got)
	}
}

func TestSequentialNeverFasterForCritical(t *testing.T) {
	// Property: the requested word never arrives earlier under a
	// sequential fill than under requested-first delivery.
	f := func(beta uint8, crit uint8, lineExp uint8) bool {
		b := int64(beta%20) + 1
		L := 8 << (lineExp % 3)
		rf := newModel(t, Config{BetaM: b, BusWidth: 4}).NewFill(0, 0, L, int(crit))
		sq := newModel(t, Config{BetaM: b, BusWidth: 4, Order: Sequential}).NewFill(0, 0, L, int(crit))
		return sq.CriticalReady() >= rf.CriticalReady() && sq.Complete() == rf.Complete()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFillOrderString(t *testing.T) {
	if RequestedFirst.String() != "requested-first" || Sequential.String() != "sequential" {
		t.Fatal("FillOrder.String wrong")
	}
	if FillOrder(7).String() != "FillOrder(7)" {
		t.Fatal("unknown FillOrder String wrong")
	}
}

func TestChunkReadyWrapsNegativeInput(t *testing.T) {
	// Regression: a sign-truncated line offset (int(addr) on a 32-bit
	// platform for addresses >= 2^31) can hand ChunkReady a negative
	// chunk index. It must wrap into the line — never yielding an
	// arrival at or before the fill's start — and agree with the
	// congruent non-negative index under both delivery orders.
	for _, order := range []FillOrder{RequestedFirst, Sequential} {
		m := newModel(t, Config{BetaM: 10, BusWidth: 4, Order: order})
		f := m.NewFill(100, 0, 32, 2)
		for c := -16; c < 16; c++ {
			pos := ((c % 8) + 8) % 8
			if got, want := f.ChunkReady(c), f.ChunkReady(pos); got != want {
				t.Fatalf("%v: ChunkReady(%d) = %d, want ChunkReady(%d) = %d", order, c, got, pos, want)
			}
			if got := f.ChunkReady(c); got <= f.Start {
				t.Fatalf("%v: ChunkReady(%d) = %d, at or before fill start %d", order, c, got, f.Start)
			}
		}
	}
}

func TestNewFillNegativeCriticalChunk(t *testing.T) {
	// A negative critical chunk (same truncation source) must schedule
	// like its congruent in-line chunk.
	m := newModel(t, Config{BetaM: 10, BusWidth: 4})
	neg := m.NewFill(0, 0, 32, -3)
	pos := m.NewFill(0, 0, 32, 5)
	if neg.CriticalReady() != pos.CriticalReady() || neg.Complete() != pos.Complete() {
		t.Fatalf("critical -3 schedules unlike critical 5: %d/%d vs %d/%d",
			neg.CriticalReady(), neg.Complete(), pos.CriticalReady(), pos.Complete())
	}
}

// newModel is New for a config the test knows is valid.
func newModel(t *testing.T, cfg Config) *Model {
	t.Helper()
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return m
}
