package cache

import (
	"tradeoff/internal/trace"

	"testing"
	"testing/quick"
)

// oracle is an independent, obviously-correct reference model of a
// set-associative LRU write-back cache, used to property-test the
// production simulator. It trades efficiency for clarity: sets are
// slices ordered most-recently-used first.
type oracle struct {
	lineSize int
	sets     [][]oracleLine
	assoc    int
}

type oracleLine struct {
	line  uint64
	dirty bool
}

func newOracle(size, lineSize, assoc int) *oracle {
	lines := size / lineSize
	if assoc == 0 {
		assoc = lines
	}
	return &oracle{
		lineSize: lineSize,
		sets:     make([][]oracleLine, lines/assoc),
		assoc:    assoc,
	}
}

// access performs one reference and reports (hit, writeback).
func (o *oracle) access(addr uint64, write bool) (hit, writeback bool) {
	line := addr / uint64(o.lineSize)
	set := int(line % uint64(len(o.sets)))
	s := o.sets[set]
	for i := range s {
		if s[i].line == line {
			entry := s[i]
			if write {
				entry.dirty = true
			}
			// Move to front (most recently used).
			copy(s[1:i+1], s[:i])
			s[0] = entry
			return true, false
		}
	}
	// Miss: allocate at front, evicting the LRU tail if full.
	entry := oracleLine{line: line, dirty: write}
	if len(s) < o.assoc {
		s = append([]oracleLine{entry}, s...)
	} else {
		writeback = s[len(s)-1].dirty
		copy(s[1:], s[:len(s)-1])
		s[0] = entry
	}
	o.sets[set] = s
	return false, writeback
}

func (o *oracle) contains(addr uint64) bool {
	line := addr / uint64(o.lineSize)
	set := int(line % uint64(len(o.sets)))
	for _, e := range o.sets[set] {
		if e.line == line {
			return true
		}
	}
	return false
}

// TestCacheMatchesOracle replays random reference sequences through
// both the production cache and the oracle, demanding identical hit,
// writeback and residency behaviour at every step.
func TestCacheMatchesOracle(t *testing.T) {
	geoms := []Config{
		{Size: 512, LineSize: 32, Assoc: 1},
		{Size: 512, LineSize: 32, Assoc: 2},
		{Size: 1024, LineSize: 16, Assoc: 4},
		{Size: 256, LineSize: 32, Assoc: 0}, // fully associative
	}
	for _, cfg := range geoms {
		cfg := cfg
		f := func(addrs []uint16, writes []bool) bool {
			c := MustNew(cfg)
			o := newOracle(cfg.Size, cfg.LineSize, cfg.Assoc)
			for i, a := range addrs {
				w := i < len(writes) && writes[i]
				got := c.Access(uint64(a), w)
				hit, wb := o.access(uint64(a), w)
				if got.Hit != hit || got.Writeback != wb {
					return false
				}
				if c.Contains(uint64(a)) != o.contains(uint64(a)) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("config %+v: %v", cfg, err)
		}
	}
}

// TestCacheMatchesOracleOnPrograms runs the oracle comparison over
// real workload-model traces, where set pressure and reuse patterns
// differ from uniform-random addresses.
func TestCacheMatchesOracleOnPrograms(t *testing.T) {
	cfg := Config{Size: 2 << 10, LineSize: 32, Assoc: 2}
	c := MustNew(cfg)
	o := newOracle(cfg.Size, cfg.LineSize, cfg.Assoc)
	refs := collectProgram(t, 40000)
	for i, r := range refs {
		got := c.Access(r.addr, r.write)
		hit, wb := o.access(r.addr, r.write)
		if got.Hit != hit || got.Writeback != wb {
			t.Fatalf("ref %d (%#x write=%v): cache (hit=%v wb=%v) vs oracle (hit=%v wb=%v)",
				i, r.addr, r.write, got.Hit, got.Writeback, hit, wb)
		}
	}
}

// twoLevelOracle is a verbatim transcription of the pre-refactor
// two-level Hierarchy.Access over two production caches, kept as the
// reference the N=2 generalized hierarchy must match bit-for-bit.
type twoLevelOracle struct {
	l1, l2 *Cache
	stats  twoLevelStats
}

// twoLevelStats mirrors the pre-refactor HierarchyStats field set.
type twoLevelStats struct {
	Accesses  uint64
	L1Hits    uint64
	L2Hits    uint64
	MemFills  uint64
	L1Flushes uint64
	L2Flushes uint64
}

func (o *twoLevelOracle) access(addr uint64, write bool) {
	o.stats.Accesses++
	out := o.l1.Access(addr, write)
	if out.Hit {
		o.stats.L1Hits++
		return
	}
	if out.Writeback {
		o.stats.L1Flushes++
		victimAddr := out.EvictedLine * uint64(o.l1.Config().LineSize)
		if wb := o.l2.Access(victimAddr, true); wb.Writeback {
			o.stats.L2Flushes++
		}
	}
	if out.Bypassed {
		if wb := o.l2.Access(addr, true); wb.Writeback {
			o.stats.L2Flushes++
		}
		return
	}
	l2out := o.l2.Access(addr, write)
	if l2out.Hit {
		o.stats.L2Hits++
		return
	}
	o.stats.MemFills++
	if l2out.Writeback {
		o.stats.L2Flushes++
	}
}

// TestHierarchyTwoLevelMatchesOracle pins the N-level refactor to the
// pre-refactor two-level behavior: identical counters and identical
// per-level cache state after every kind of traffic, across write
// policies (including the write-around bypass path).
func TestHierarchyTwoLevelMatchesOracle(t *testing.T) {
	configs := [][2]Config{
		{
			{Size: 512, LineSize: 32, Assoc: 1},
			{Size: 4 << 10, LineSize: 32, Assoc: 4},
		},
		{
			{Size: 512, LineSize: 16, Assoc: 2, WriteMiss: WriteAround},
			{Size: 2 << 10, LineSize: 32, Assoc: 2},
		},
		{
			{Size: 256, LineSize: 32, Assoc: 0, Write: WriteThrough},
			{Size: 2 << 10, LineSize: 64, Assoc: 4},
		},
	}
	refs := collectProgram(t, 40000)
	for _, cfgs := range configs {
		h, err := NewHierarchy(cfgs[0], cfgs[1])
		if err != nil {
			t.Fatalf("%+v: %v", cfgs, err)
		}
		o := &twoLevelOracle{l1: MustNew(cfgs[0]), l2: MustNew(cfgs[1])}
		for _, r := range refs {
			h.Access(r.addr, r.write)
			o.access(r.addr, r.write)
		}
		s := h.Stats()
		got := twoLevelStats{
			Accesses:  s.Accesses,
			L1Hits:    s.Levels[0].Hits,
			L2Hits:    s.Levels[1].Hits,
			MemFills:  s.MemFills,
			L1Flushes: s.Levels[0].Flushes,
			L2Flushes: s.Levels[1].Flushes,
		}
		if got != o.stats {
			t.Errorf("%+v:\n  N=2 stats %+v\n  oracle    %+v", cfgs, got, o.stats)
		}
		// Legacy ratio accessors must agree with the pre-refactor
		// definitions computed from the oracle's counters.
		if want := float64(o.stats.L1Hits) / float64(o.stats.Accesses); s.L1HitRatio() != want {
			t.Errorf("%+v: L1HitRatio %v, oracle %v", cfgs, s.L1HitRatio(), want)
		}
		if probes := o.stats.L2Hits + o.stats.MemFills; probes > 0 {
			if want := float64(o.stats.L2Hits) / float64(probes); s.L2LocalHitRatio() != want {
				t.Errorf("%+v: L2LocalHitRatio %v, oracle %v", cfgs, s.L2LocalHitRatio(), want)
			}
		}
		// Residency must match level by level too.
		for _, r := range refs[:512] {
			if h.levels[0].Contains(r.addr) != o.l1.Contains(r.addr) || h.levels[1].Contains(r.addr) != o.l2.Contains(r.addr) {
				t.Fatalf("%+v: residency of %#x diverged", cfgs, r.addr)
			}
		}
	}
}

// TestHierarchyOneLevelMatchesBareCache pins the degenerate N=1 case:
// a single-level hierarchy is a bare Cache with a counter veneer —
// same hits, same state, and every miss a memory fill.
func TestHierarchyOneLevelMatchesBareCache(t *testing.T) {
	for _, cfg := range []Config{
		{Size: 1 << 10, LineSize: 32, Assoc: 2},
		{Size: 512, LineSize: 16, Assoc: 1, WriteMiss: WriteAround},
	} {
		h, err := NewHierarchy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		c := MustNew(cfg)
		refs := collectProgram(t, 40000)
		var hits, misses, flushes uint64
		for _, r := range refs {
			h.Access(r.addr, r.write)
			out := c.Access(r.addr, r.write)
			if out.Hit {
				hits++
			} else {
				misses++
			}
			if out.Writeback {
				flushes++
			}
		}
		s := h.Stats()
		if s.Accesses != uint64(len(refs)) || s.Levels[0].Hits != hits || s.MemFills != misses || s.Levels[0].Flushes != flushes {
			t.Fatalf("%+v: one-level stats %+v vs bare cache hits=%d misses=%d flushes=%d",
				cfg, s, hits, misses, flushes)
		}
		for _, r := range refs[:512] {
			if h.levels[0].Contains(r.addr) != c.Contains(r.addr) {
				t.Fatalf("%+v: residency of %#x diverged from bare cache", cfg, r.addr)
			}
		}
	}
}

type simpleRef struct {
	addr  uint64
	write bool
}

// collectProgram grabs a workload-model trace in the oracle's reduced
// reference form.
func collectProgram(t *testing.T, n int) []simpleRef {
	t.Helper()
	full := trace.Collect(trace.MustProgram(trace.Wave5, 17), n)
	refs := make([]simpleRef, len(full))
	for i, r := range full {
		refs[i] = simpleRef{addr: r.Addr, write: r.Write}
	}
	return refs
}
