package cache

import "fmt"

// VictimCache couples a main cache with a small fully-associative
// victim buffer (Jouppi, ISCA 1990 — reference [7] of the paper):
// lines displaced from the main cache land in the buffer, and a
// main-cache miss that hits the buffer swaps the line back without a
// memory fill. It removes most conflict misses of a direct-mapped
// cache at a fraction of the area of doubling associativity — another
// feature the hit-ratio currency can price.
type VictimCache struct {
	main   *Cache
	victim []victimLine
	stats  victimStats
	clock  uint64
}

type victimLine struct {
	line  uint64
	dirty bool
	valid bool
	stamp uint64
}

// victimStats counts the victim-buffer events Combined corrects the
// main cache's statistics by.
type victimStats struct {
	swapHits uint64 // main-cache misses satisfied by the buffer
	dirtyOut uint64 // buffer evictions that wrote back to memory

	// bookkeepingWrites counts internal dirty-restoration touches that
	// must be excluded from combined statistics.
	bookkeepingWrites uint64
}

// CombinedStats summarizes the two-level structure as one cache:
// swap hits count as hits (they cost a swap, not a memory fill).
type CombinedStats struct {
	Accesses   uint64
	Hits       uint64 // main hits + swap hits
	Misses     uint64 // true memory fills (plus write-around bypasses)
	HitRatio   float64
	Writebacks uint64 // writes to memory from the buffer
}

// NewVictim wraps a main cache configuration with an entries-deep
// victim buffer. entries must be in 1..64 (Jouppi evaluated 1-15).
func NewVictim(cfg Config, entries int) (*VictimCache, error) {
	if entries <= 0 || entries > 64 {
		return nil, fmt.Errorf("cache: victim buffer entries %d, want 1..64", entries)
	}
	main, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return &VictimCache{main: main, victim: make([]victimLine, entries)}, nil
}

// Access performs one reference through the two-level structure. The
// returned outcome reflects memory-visible behaviour: a swap hit has
// Hit=true and Fill=false, and displaced lines only write back to
// memory when they fall out of the buffer dirty.
func (v *VictimCache) Access(addr uint64, write bool) Outcome {
	v.clock++
	line := addr / uint64(v.main.Config().LineSize)

	if v.main.Contains(addr) {
		return v.main.Access(addr, write)
	}
	swapIdx := v.find(line)
	out := v.main.Access(addr, write)
	if out.Bypassed {
		// Write-around store: no allocation happened; the buffered
		// copy (if any) is now stale and must be dropped.
		if swapIdx >= 0 {
			v.victim[swapIdx].valid = false
		}
		return out
	}
	// A fill occurred in the main cache. Capture its victim.
	if out.Evicted {
		v.insert(out.EvictedLine, out.EvictedDirty)
		// The buffer absorbed the victim; memory sees no writeback now.
		out.Writeback = false
		out.Evicted = false
	}
	if swapIdx >= 0 {
		// The line came from the buffer, not memory: a swap, not a fill.
		v.stats.swapHits++
		if v.victim[swapIdx].dirty && !write {
			// Preserve the dirty state the buffer was holding.
			v.main.Access(addr, true)
			v.stats.bookkeepingWrites++
		}
		v.victim[swapIdx].valid = false
		out.Hit = true
		out.Fill = false
	}
	return out
}

// find returns the buffer slot holding line, or -1.
func (v *VictimCache) find(line uint64) int {
	for i := range v.victim {
		if v.victim[i].valid && v.victim[i].line == line {
			return i
		}
	}
	return -1
}

// insert places a displaced line into the buffer, evicting LRU.
func (v *VictimCache) insert(line uint64, dirty bool) {
	slot, oldest := -1, ^uint64(0)
	for i := range v.victim {
		if !v.victim[i].valid {
			slot = i
			break
		}
		if v.victim[i].stamp < oldest {
			slot, oldest = i, v.victim[i].stamp
		}
	}
	if v.victim[slot].valid && v.victim[slot].dirty {
		v.stats.dirtyOut++
	}
	v.victim[slot] = victimLine{line: line, dirty: dirty, valid: true, stamp: v.clock}
}

// Combined returns the memory-visible statistics of the two-level
// structure.
func (v *VictimCache) Combined() CombinedStats {
	m := v.main.Stats()
	accesses := m.Accesses() - v.stats.bookkeepingWrites
	hits := m.Hits() - v.stats.bookkeepingWrites + v.stats.swapHits
	misses := m.Misses() - v.stats.swapHits
	cs := CombinedStats{
		Accesses:   accesses,
		Hits:       hits,
		Misses:     misses,
		Writebacks: v.stats.dirtyOut,
	}
	if accesses > 0 {
		cs.HitRatio = float64(hits) / float64(accesses)
	}
	return cs
}
