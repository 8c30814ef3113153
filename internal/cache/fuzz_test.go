package cache

import "testing"

// FuzzCacheAccess drives the production cache and the oracle with a
// byte-string-encoded access sequence, demanding identical behaviour
// and structural invariants. Run longer with:
//
//	go test -fuzz=FuzzCacheAccess ./internal/cache
func FuzzCacheAccess(f *testing.F) {
	f.Add([]byte{0x00, 0x20, 0x40, 0x00, 0x81, 0xFF})
	f.Add([]byte("sequential-ish input exercising several sets"))
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := Config{Size: 512, LineSize: 32, Assoc: 2}
		c := MustNew(cfg)
		o := newOracle(cfg.Size, cfg.LineSize, cfg.Assoc)
		for i := 0; i+1 < len(data); i += 2 {
			addr := uint64(data[i]) << 3 // spread across sets
			write := data[i+1]&1 == 1
			got := c.Access(addr, write)
			hit, wb := o.access(addr, write)
			if got.Hit != hit || got.Writeback != wb {
				t.Fatalf("step %d: cache (hit=%v wb=%v) != oracle (hit=%v wb=%v)",
					i/2, got.Hit, got.Writeback, hit, wb)
			}
			if got.Hit == got.Fill && !got.Bypassed {
				t.Fatalf("step %d: hit and fill both %v", i/2, got.Hit)
			}
		}
		if c.validLines() > cfg.Size/cfg.LineSize {
			t.Fatal("more valid lines than capacity")
		}
		s := c.Stats()
		if s.Hits()+s.Misses() != s.Accesses() {
			t.Fatal("hits + misses != accesses")
		}
	})
}

// FuzzSectorCache checks the sector cache's counting invariants under
// arbitrary access sequences.
func FuzzSectorCache(f *testing.F) {
	f.Add([]byte{1, 2, 3, 200, 100, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := NewSector(512, 64, 8, 2)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(data); i += 2 {
			c.Access(uint64(data[i])<<2, data[i+1]&1 == 1)
		}
		s := c.Stats()
		if s.Hits+s.SubMisses+s.SectorMiss != s.Accesses {
			t.Fatalf("outcome counts %d+%d+%d != accesses %d",
				s.Hits, s.SubMisses, s.SectorMiss, s.Accesses)
		}
		if s.SubFills != s.SubMisses+s.SectorMiss {
			t.Fatalf("fills %d != sub misses %d + sector misses %d",
				s.SubFills, s.SubMisses, s.SectorMiss)
		}
	})
}
