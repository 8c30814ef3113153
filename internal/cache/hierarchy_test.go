package cache

import (
	"testing"

	"tradeoff/internal/trace"
)

func h8_64() *Hierarchy {
	h, err := NewHierarchy(
		Config{Size: 8 << 10, LineSize: 32, Assoc: 2},
		Config{Size: 64 << 10, LineSize: 32, Assoc: 4},
	)
	if err != nil {
		panic(err)
	}
	return h
}

func TestNewHierarchyValidation(t *testing.T) {
	if _, err := NewHierarchy(); err == nil {
		t.Fatal("empty hierarchy accepted")
	}
	if _, err := NewHierarchy(
		Config{Size: 8 << 10, LineSize: 64, Assoc: 2},
		Config{Size: 64 << 10, LineSize: 32, Assoc: 4}); err == nil {
		t.Fatal("L2 line smaller than L1 accepted")
	}
	if _, err := NewHierarchy(
		Config{Size: 64 << 10, LineSize: 32, Assoc: 2},
		Config{Size: 8 << 10, LineSize: 32, Assoc: 4}); err == nil {
		t.Fatal("L2 smaller than L1 accepted")
	}
	if _, err := NewHierarchy(Config{Size: 3}, Config{Size: 64 << 10, LineSize: 32, Assoc: 4}); err == nil {
		t.Fatal("bad L1 accepted")
	}
	if _, err := NewHierarchy(Config{Size: 1 << 10, LineSize: 32, Assoc: 2}, Config{Size: 2 << 10, LineSize: 32, Assoc: 3}); err == nil {
		t.Fatal("bad L2 accepted")
	}
	// Monotonicity is enforced between adjacent levels, anywhere in the
	// stack, not just L1→L2.
	if _, err := NewHierarchy(
		Config{Size: 1 << 10, LineSize: 32, Assoc: 2},
		Config{Size: 8 << 10, LineSize: 64, Assoc: 4},
		Config{Size: 64 << 10, LineSize: 32, Assoc: 4}); err == nil {
		t.Fatal("L3 line smaller than L2 accepted")
	}
}

func TestHierarchyBasicFlow(t *testing.T) {
	h := h8_64()
	h.Access(0x1000, false) // cold: misses both, fills both
	s := h.Stats()
	if s.MemFills != 1 || s.Levels[0].Hits != 0 || s.Levels[1].Hits != 0 {
		t.Fatalf("cold access stats %+v", s)
	}
	h.Access(0x1000, false) // L1 hit
	if got := h.Stats().Levels[0].Hits; got != 1 {
		t.Fatalf("L1 hits = %d, want 1", got)
	}
}

func TestHierarchyL2CatchesL1Conflicts(t *testing.T) {
	// Two addresses that conflict in the small L1 but coexist in the
	// bigger L2: after warm-up, re-references are L2 hits, not memory
	// fills. Use a tiny direct-mapped L1 to force the conflict.
	h, err := NewHierarchy(
		Config{Size: 64, LineSize: 32, Assoc: 1},
		Config{Size: 4 << 10, LineSize: 32, Assoc: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0, false)
	h.Access(64, false) // evicts 0 from L1; both now in L2
	h.Access(0, false)  // L1 miss, L2 hit
	s := h.Stats()
	if s.Levels[1].Hits != 1 {
		t.Fatalf("L2 hits = %d, want 1: %+v", s.Levels[1].Hits, s)
	}
	if s.MemFills != 2 {
		t.Fatalf("memory fills = %d, want 2 cold fills only", s.MemFills)
	}
}

func TestHierarchyDirtyVictimInstalledInL2(t *testing.T) {
	h, err := NewHierarchy(
		Config{Size: 64, LineSize: 32, Assoc: 1},
		Config{Size: 4 << 10, LineSize: 32, Assoc: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0, true)   // dirty line 0 in L1
	h.Access(64, false) // evicts dirty 0 → installed in L2
	if got := h.Stats().Levels[0].Flushes; got != 1 {
		t.Fatalf("L1 flushes = %d, want 1", got)
	}
	if !h.levels[1].dirty(0) {
		t.Fatal("L1 victim not dirty in L2")
	}
	// Re-reading 0 must hit L2, with the data (dirtiness) preserved.
	h.Access(0, false)
	if got := h.Stats().Levels[1].Hits; got != 1 {
		t.Fatalf("L2 hits = %d, want 1", got)
	}
}

func TestHierarchyRatios(t *testing.T) {
	h := h8_64()
	refs := trace.Collect(trace.ZipfReuse(trace.ZipfReuseConfig{
		Seed: 3, Lines: 65536, Theta: 1.5, WriteFrac: 0.3}), 200000)
	for _, r := range refs {
		h.Access(r.Addr, r.Write)
	}
	s := h.Stats()
	if s.L1HitRatio() < 0.85 || s.L1HitRatio() > 0.97 {
		t.Fatalf("L1 hit ratio %.3f out of expected band", s.L1HitRatio())
	}
	if s.L2LocalHitRatio() <= 0.3 {
		t.Fatalf("L2 local hit ratio %.3f too low to be useful", s.L2LocalHitRatio())
	}
	if g := s.GlobalHitRatio(); g <= s.L1HitRatio() {
		t.Fatalf("global hit ratio %.3f not above L1's %.3f", g, s.L1HitRatio())
	}
	// Conservation: every access is exactly one of the three outcomes.
	if s.Levels[0].Hits+s.Levels[1].Hits+s.MemFills != s.Accesses {
		t.Fatalf("outcome counts do not add up: %+v", s)
	}
	// The legacy two-level accessors are views over the general ones.
	if s.L1HitRatio() != s.LocalHitRatio(0) || s.L2LocalHitRatio() != s.LocalHitRatio(1) {
		t.Fatal("legacy ratio accessors disagree with LocalHitRatio")
	}
	if hrs := s.LocalHitRatios(); len(hrs) != 2 || hrs[0] != s.LocalHitRatio(0) || hrs[1] != s.LocalHitRatio(1) {
		t.Fatalf("LocalHitRatios() = %v inconsistent", hrs)
	}
}

func TestHierarchyStatsEmpty(t *testing.T) {
	var s HierarchyStats
	if s.L1HitRatio() != 0 || s.L2LocalHitRatio() != 0 || s.GlobalHitRatio() != 0 {
		t.Fatal("empty hierarchy ratios non-zero")
	}
	if s.LocalHitRatio(-1) != 0 || s.LocalHitRatio(5) != 0 {
		t.Fatal("out-of-range level ratio non-zero")
	}
}

func TestHierarchyWriteAroundL1(t *testing.T) {
	h, err := NewHierarchy(
		Config{Size: 64, LineSize: 32, Assoc: 1, WriteMiss: WriteAround},
		Config{Size: 4 << 10, LineSize: 32, Assoc: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	h.Access(0x100, true) // L1 write-around: goes to L2 as a write
	if h.levels[0].Contains(0x100) {
		t.Fatal("write-around allocated in L1")
	}
	if !h.levels[1].Contains(0x100) {
		t.Fatal("write-around store not installed in L2")
	}
}

func TestHierarchyThreeLevels(t *testing.T) {
	// A capacity ladder: addresses evicted from L1 and L2 are still
	// caught by a large L3, so after warm-up a working set bigger than
	// L2 but smaller than L3 produces L3 hits, not memory fills.
	h, err := NewHierarchy(
		Config{Size: 64, LineSize: 32, Assoc: 1},
		Config{Size: 128, LineSize: 32, Assoc: 2},
		Config{Size: 64 << 10, LineSize: 32, Assoc: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(h.levels) != 3 {
		t.Fatalf("Depth() = %d, want 3", len(h.levels))
	}
	// 16 distinct lines: way beyond L1 (2 lines) and L2 (4 lines),
	// comfortably inside L3. Two full passes: pass one is cold fills,
	// pass two must be all L3 hits.
	for pass := 0; pass < 2; pass++ {
		for i := uint64(0); i < 16; i++ {
			h.Access(i*32, false)
		}
	}
	s := h.Stats()
	if s.MemFills != 16 {
		t.Fatalf("memory fills = %d, want 16 cold fills only: %+v", s.MemFills, s)
	}
	if s.Levels[2].Hits == 0 {
		t.Fatalf("no L3 hits: %+v", s)
	}
	var hits uint64
	for _, l := range s.Levels {
		hits += l.Hits
	}
	if hits+s.MemFills != s.Accesses {
		t.Fatalf("outcome counts do not add up: %+v", s)
	}
}

func TestHierarchyDirtyVictimCascade(t *testing.T) {
	// A dirty victim evicted from L1 installs into L2; when L2 in turn
	// evicts a dirty line, that victim cascades into L3.
	h, err := NewHierarchy(
		Config{Size: 32, LineSize: 32, Assoc: 1}, // 1 line
		Config{Size: 64, LineSize: 32, Assoc: 1}, // 2 lines, direct-mapped
		Config{Size: 4 << 10, LineSize: 32, Assoc: 4},
	)
	if err != nil {
		t.Fatal(err)
	}
	// Addresses 0, 128 and 0x200 all map to L2 set 0 (2-set
	// direct-mapped); dirtying them in turn through L1 forces L2 to
	// evict dirty lines, which must cascade into L3.
	h.Access(0, true)     // dirty 0 everywhere (demand write fills all levels)
	h.Access(128, true)   // L1 victim 0 → L2; L2's demand fill of 128 evicts dirty 0 → L3
	h.Access(0x200, true) // L1 victim 128 → L2; L2's fill of 0x200 evicts dirty 128 → L3
	s := h.Stats()
	if s.Levels[0].Flushes != 2 {
		t.Fatalf("L1 flushes = %d, want 2: %+v", s.Levels[0].Flushes, s)
	}
	if s.Levels[1].Flushes != 2 {
		t.Fatalf("L2 flushes = %d, want 2: %+v", s.Levels[1].Flushes, s)
	}
	if !h.levels[2].dirty(0) {
		t.Fatal("cascaded L2 victim not dirty in L3")
	}
}
