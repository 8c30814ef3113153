package cache

import (
	"testing"

	"tradeoff/internal/trace"
)

func TestNewVictimValidation(t *testing.T) {
	cfg := Config{Size: 1 << 10, LineSize: 32, Assoc: 1}
	if _, err := NewVictim(cfg, 0); err == nil {
		t.Fatal("zero entries accepted")
	}
	if _, err := NewVictim(cfg, 100); err == nil {
		t.Fatal("oversized buffer accepted")
	}
	if _, err := NewVictim(Config{Size: 3}, 4); err == nil {
		t.Fatal("bad main cache accepted")
	}
}

func TestVictimSwapHit(t *testing.T) {
	// Direct-mapped 2-line cache: addresses 0 and 64 conflict in set 0.
	v, err := NewVictim(Config{Size: 64, LineSize: 32, Assoc: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	v.Access(0, false)  // fill A
	v.Access(64, false) // fill B, displaces A into the buffer
	out := v.Access(0, false)
	if !out.Hit || out.Fill {
		t.Fatalf("conflicting re-reference: %+v, want swap hit", out)
	}
	if got := v.stats.swapHits; got != 1 {
		t.Fatalf("swap hits = %d, want 1", got)
	}
}

func TestVictimEvictedLineIdentity(t *testing.T) {
	// The Outcome must carry the true line index of the victim.
	c := MustNew(Config{Size: 64, LineSize: 32, Assoc: 1})
	c.Access(0, true)
	out := c.Access(64, false)
	if !out.Evicted || out.EvictedLine != 0 || !out.EvictedDirty {
		t.Fatalf("eviction outcome %+v, want dirty line 0", out)
	}
}

func TestVictimPreservesDirtyData(t *testing.T) {
	v, err := NewVictim(Config{Size: 64, LineSize: 32, Assoc: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	v.Access(0, true)   // dirty A
	v.Access(64, false) // displace dirty A into the buffer
	v.Access(0, false)  // swap back: A must return dirty
	if !v.main.dirty(0) {
		t.Fatal("dirty state lost through the victim buffer")
	}
	// No memory writeback happened anywhere in this sequence.
	if got := v.Combined().Writebacks; got != 0 {
		t.Fatalf("combined writebacks = %d, want 0", got)
	}
}

func TestVictimDirtyFallsOutToMemory(t *testing.T) {
	v, err := NewVictim(Config{Size: 64, LineSize: 32, Assoc: 1}, 1)
	if err != nil {
		t.Fatal(err)
	}
	v.Access(0, true)    // dirty A
	v.Access(64, false)  // A -> buffer (dirty)
	v.Access(128, false) // B displaced -> buffer, A falls out dirty
	if got := v.stats.dirtyOut; got != 1 {
		t.Fatalf("dirty buffer evictions = %d, want 1", got)
	}
}

func TestVictimCombinedAccounting(t *testing.T) {
	v, err := NewVictim(Config{Size: 64, LineSize: 32, Assoc: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	v.Access(0, false)
	v.Access(64, false)
	v.Access(0, false) // swap hit
	cs := v.Combined()
	if cs.Accesses != 3 || cs.Hits != 1 || cs.Misses != 2 {
		t.Fatalf("combined %+v, want 3 accesses, 1 hit, 2 misses", cs)
	}
}

func TestVictimBufferRemovesConflictMisses(t *testing.T) {
	// The Jouppi result, qualitatively: a direct-mapped cache plus a
	// 4-entry victim buffer recovers most of the hit-ratio gap to a
	// 2-way cache of the same size.
	refs := trace.Collect(trace.MustProgram(trace.Ear, 5), 150000)

	dm := MustNew(Config{Size: 8 << 10, LineSize: 32, Assoc: 1})
	twoWay := MustNew(Config{Size: 8 << 10, LineSize: 32, Assoc: 2})
	vc, err := NewVictim(Config{Size: 8 << 10, LineSize: 32, Assoc: 1}, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range refs {
		dm.Access(r.Addr, r.Write)
		twoWay.Access(r.Addr, r.Write)
		vc.Access(r.Addr, r.Write)
	}
	hrDM := dm.Stats().HitRatio()
	hr2W := twoWay.Stats().HitRatio()
	hrVC := vc.Combined().HitRatio
	if hrVC <= hrDM {
		t.Fatalf("victim buffer did not help: DM %.4f, DM+victim %.4f", hrDM, hrVC)
	}
	if hr2W > hrDM { // only meaningful when associativity helps at all
		recovered := (hrVC - hrDM) / (hr2W - hrDM)
		if recovered < 0.3 {
			t.Fatalf("victim buffer recovered only %.0f%% of the 2-way gap (DM %.4f, +victim %.4f, 2-way %.4f)",
				100*recovered, hrDM, hrVC, hr2W)
		}
	}
}

func TestVictimWriteAroundInvalidatesBuffer(t *testing.T) {
	cfg := Config{Size: 64, LineSize: 32, Assoc: 1, WriteMiss: WriteAround}
	v, err := NewVictim(cfg, 4)
	if err != nil {
		t.Fatal(err)
	}
	v.Access(0, false)  // fill A
	v.Access(64, false) // displace A into buffer
	v.Access(0, true)   // write-around store to A: stale buffer copy dropped
	out := v.Access(0, false)
	if out.Hit {
		t.Fatalf("stale buffered line served after write-around store: %+v", out)
	}
}
