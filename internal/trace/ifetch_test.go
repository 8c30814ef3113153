package trace

import "testing"

func TestIFetchOneFetchPerInstruction(t *testing.T) {
	refs := Collect(IFetch(IFetchConfig{Seed: 1, Base: 0x8000_0000}), 10000)
	for i, r := range refs {
		if r.Instr != uint64(i) {
			t.Fatalf("ref %d has instr %d, want one fetch per instruction", i, r.Instr)
		}
		if r.Write {
			t.Fatalf("ref %d is a write; fetches are reads", i)
		}
		if r.Size != 4 {
			t.Fatalf("ref %d size %d, want 4", i, r.Size)
		}
	}
}

func TestIFetchStaysInCodeRegion(t *testing.T) {
	cfg := IFetchConfig{Seed: 2, Base: 0x8000_0000, CodeBytes: 64 << 10}
	refs := Collect(IFetch(cfg), 50000)
	for i, r := range refs {
		if r.Addr < cfg.Base || r.Addr >= cfg.Base+cfg.CodeBytes {
			t.Fatalf("ref %d addr %#x outside code region", i, r.Addr)
		}
		if r.Addr%4 != 0 {
			t.Fatalf("ref %d addr %#x not instruction aligned", i, r.Addr)
		}
	}
}

func TestIFetchHighLocality(t *testing.T) {
	// §3.4: "instruction cache hit ratio is usually very high". The
	// stream must show far fewer unique lines than references.
	refs := Collect(IFetch(IFetchConfig{Seed: 3, Base: 0}), 50000)
	s := Summarize(refs)
	if s.UniqueLines > len(refs)/20 {
		t.Fatalf("ifetch touched %d lines in %d refs — locality too weak", s.UniqueLines, len(refs))
	}
	// Sequential flow: most consecutive fetches share a 32-byte line.
	if s.SameLineFrac < 0.5 {
		t.Fatalf("same-line fraction %.3f, want sequential-dominated stream", s.SameLineFrac)
	}
}

func TestIFetchDeterministic(t *testing.T) {
	a := Collect(IFetch(IFetchConfig{Seed: 9}), 2000)
	b := Collect(IFetch(IFetchConfig{Seed: 9}), 2000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ref %d differs", i)
		}
	}
}

func TestInterleaveOrdering(t *testing.T) {
	data := finite(Sequential(SequentialConfig{Seed: 1, Base: 0x1000, GapMean: 3}), 100)
	fetch := IFetch(IFetchConfig{Seed: 2, Base: 0x8000_0000})
	refs := Collect(Interleave(data, fetch), 10000)
	if len(refs) == 0 {
		t.Fatal("no interleaved refs")
	}
	var lastInstr uint64
	dataCount := 0
	for i, r := range refs {
		if r.Instr < lastInstr {
			t.Fatalf("ref %d: instr went backwards (%d after %d)", i, r.Instr, lastInstr)
		}
		lastInstr = r.Instr
		if r.Addr < 0x8000_0000 {
			dataCount++
			// A data ref must directly follow its instruction's fetch.
			if i == 0 || refs[i-1].Instr != r.Instr || refs[i-1].Addr < 0x8000_0000 {
				t.Fatalf("ref %d: data ref not preceded by its fetch", i)
			}
		}
	}
	if dataCount != 100 {
		t.Fatalf("interleave emitted %d data refs, want 100", dataCount)
	}
}

func TestInterleaveEndsWithData(t *testing.T) {
	data := finite(Sequential(SequentialConfig{Seed: 1, Base: 0x1000}), 5)
	fetch := IFetch(IFetchConfig{Seed: 2, Base: 0x8000_0000})
	src := Interleave(data, fetch)
	n := 0
	for {
		if _, ok := src.Next(); !ok {
			break
		}
		n++
		if n > 1_000_000 {
			t.Fatal("interleave did not terminate")
		}
	}
	if n < 5 {
		t.Fatalf("only %d refs before exhaustion", n)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("exhausted interleave yielded another ref")
	}
}
