package cache

import "fmt"

// Hierarchy is an N-level cache: an on-chip L1 backed by progressively
// larger (typically off-chip) lower levels; only last-level misses
// reach memory. The 1994 methodology predates ubiquitous L2s, but the
// mean-memory-delay currency extends to any depth directly (see
// core.HierarchyDelay); this simulator supplies the measured local hit
// ratios that model needs.
//
// Inclusion is not enforced (the common board-level L2 of the era was
// non-inclusive); dirty victims of level i are installed into level
// i+1, and the last level's dirty victims are written to memory.
type Hierarchy struct {
	levels []*Cache
	stats  HierarchyStats
}

// LevelStats counts one level's events on the hierarchy's demand path.
// A level's internal cache.Stats additionally counts victim installs
// and forwarded writes; LevelStats counts only what the delay model
// prices.
type LevelStats struct {
	Hits    uint64 // demand probes that hit at this level
	Flushes uint64 // dirty victims written to the next level (or memory)
}

// HierarchyStats counts the N-level structure's events. Every demand
// access terminates in exactly one Levels[i].Hits or MemFills (except
// write-around stores bypassing an inner level, which are forwarded
// down as pure writes and terminate unaccounted, as the two-level
// simulator always did).
type HierarchyStats struct {
	Accesses uint64
	Levels   []LevelStats
	MemFills uint64 // last-level misses served by memory
}

// LocalHitRatio returns level i's hit ratio over the demand-probe
// stream that reaches it. Level 0's denominator is all accesses
// (including write-around stores that bypass it); deeper levels see
// only demand probes — hits at or below plus memory fills — matching
// how the two-level simulator always defined its L2 local ratio.
func (s HierarchyStats) LocalHitRatio(i int) float64 {
	if i < 0 || i >= len(s.Levels) {
		return 0
	}
	probes := s.Accesses
	if i > 0 {
		probes = s.MemFills
		for j := i; j < len(s.Levels); j++ {
			probes += s.Levels[j].Hits
		}
	}
	if probes == 0 {
		return 0
	}
	return float64(s.Levels[i].Hits) / float64(probes)
}

// GlobalHitRatio returns the fraction of accesses served without
// touching memory.
func (s HierarchyStats) GlobalHitRatio() float64 {
	if s.Accesses == 0 {
		return 0
	}
	var hits uint64
	for _, l := range s.Levels {
		hits += l.Hits
	}
	return float64(hits) / float64(s.Accesses)
}

// LocalHitRatios returns every level's local hit ratio, the vector
// core.HierarchyDelay consumes.
func (s HierarchyStats) LocalHitRatios() []float64 {
	out := make([]float64, len(s.Levels))
	for i := range s.Levels {
		out[i] = s.LocalHitRatio(i)
	}
	return out
}

// L1HitRatio returns the first level's hit ratio over all accesses —
// the two-level view's legacy name for LocalHitRatio(0).
func (s HierarchyStats) L1HitRatio() float64 { return s.LocalHitRatio(0) }

// L2LocalHitRatio returns the second level's hit ratio over the L1
// miss stream — the legacy name for LocalHitRatio(1).
func (s HierarchyStats) L2LocalHitRatio() float64 { return s.LocalHitRatio(1) }

// NewHierarchy builds an N-level cache from top (L1) to bottom. At
// least one level is required; each level's line size and capacity
// must be at least its predecessor's (whole upper lines must fit
// lower lines).
func NewHierarchy(cfgs ...Config) (*Hierarchy, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("cache: hierarchy needs at least one level")
	}
	h := &Hierarchy{
		levels: make([]*Cache, 0, len(cfgs)),
		stats:  HierarchyStats{Levels: make([]LevelStats, len(cfgs))},
	}
	for i, cfg := range cfgs {
		if i > 0 {
			prev := cfgs[i-1]
			if cfg.LineSize < prev.LineSize {
				return nil, fmt.Errorf("cache: L%d line %d smaller than L%d line %d", i+1, cfg.LineSize, i, prev.LineSize)
			}
			if cfg.Size < prev.Size {
				return nil, fmt.Errorf("cache: L%d size %d smaller than L%d size %d", i+1, cfg.Size, i, prev.Size)
			}
		}
		c, err := New(cfg)
		if err != nil {
			return nil, fmt.Errorf("L%d: %w", i+1, err)
		}
		h.levels = append(h.levels, c)
	}
	return h, nil
}

// Stats returns the hierarchy's counters.
func (h *Hierarchy) Stats() HierarchyStats {
	s := h.stats
	s.Levels = append([]LevelStats(nil), h.stats.Levels...)
	return s
}

// Access performs one reference through the hierarchy.
func (h *Hierarchy) Access(addr uint64, write bool) {
	h.stats.Accesses++
	h.probe(0, addr, write)
}

// probe runs the demand path at level i: a hit terminates there; a
// miss installs any dirty victim one level down and recurses (or
// counts a memory fill at the bottom). A write-around store bypassing
// an inner level is forwarded down as a pure write; at the last level
// it goes to memory and counts as a fill there, exactly as the
// two-level simulator accounted it.
func (h *Hierarchy) probe(i int, addr uint64, write bool) {
	out := h.levels[i].Access(addr, write)
	if out.Hit {
		h.stats.Levels[i].Hits++
		return
	}
	if out.Writeback {
		h.stats.Levels[i].Flushes++
		h.install(i+1, h.victimAddr(i, out))
	}
	if out.Bypassed && i < len(h.levels)-1 {
		h.install(i+1, addr)
		return
	}
	if i == len(h.levels)-1 {
		h.stats.MemFills++
		return
	}
	h.probe(i+1, addr, write)
}

// install writes a victim (or forwarded store) into level i. Installs
// cascade: evicting a dirty line at level i installs that victim into
// level i+1; past the last level the write goes to memory, which the
// flush counter above already recorded.
func (h *Hierarchy) install(i int, addr uint64) {
	if i >= len(h.levels) {
		return
	}
	out := h.levels[i].Access(addr, true)
	if out.Writeback {
		h.stats.Levels[i].Flushes++
		h.install(i+1, h.victimAddr(i, out))
	}
	if out.Bypassed {
		h.install(i+1, addr)
	}
}

// victimAddr reconstructs the byte address of level i's evicted line.
func (h *Hierarchy) victimAddr(i int, out Outcome) uint64 {
	return out.EvictedLine * uint64(h.levels[i].Config().LineSize)
}
