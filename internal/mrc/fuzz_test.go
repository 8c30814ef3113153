package mrc

import (
	"testing"

	"tradeoff/internal/cache"
	"tradeoff/internal/trace"
)

// FuzzMRCMatchesSimulator drives fuzzer-chosen traces and geometries
// through both the exact Mattson profiler and the cache simulator,
// asserting the hit ratios are equal bit-for-bit for fully-associative
// LRU write-allocate caches — the exactness domain DESIGN.md §5.5
// documents. Traces come from the named workload generators or, in one
// mode, raw splitmix64 addresses confined to a small region so reuse
// is frequent.
func FuzzMRCMatchesSimulator(f *testing.F) {
	f.Add(uint64(1994), uint16(2000), uint8(2), uint8(3), uint8(0))
	f.Add(uint64(7), uint16(500), uint8(0), uint8(0), uint8(3))
	f.Add(uint64(42), uint16(4000), uint8(3), uint8(4), uint8(7))
	f.Add(uint64(123457), uint16(1), uint8(1), uint8(2), uint8(6))
	f.Fuzz(func(t *testing.T, seed uint64, nrefs uint16, lineShift, sizeShift, workIdx uint8) {
		line := 1 << (4 + int(lineShift)%4)  // 16..128 bytes
		size := 1 << (10 + int(sizeShift)%5) // 1..16 KiB
		n := int(nrefs) % 5000

		workloads := trace.Workloads()
		var refs []trace.Ref
		if mode := int(workIdx) % (len(workloads) + 1); mode < len(workloads) {
			refs = trace.Collect(trace.MustWorkload(workloads[mode], seed), n)
		} else {
			// Raw splitmix64 addresses over a 256-block region.
			refs = make([]trace.Ref, n)
			s := seed
			for i := range refs {
				s += 0x9E3779B97F4A7C15
				z := s
				z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
				z = (z ^ (z >> 27)) * 0x94D049BB133111EB
				z ^= z >> 31
				refs[i] = trace.Ref{Addr: (z % 256) * uint64(line), Write: z&1 == 0}
			}
		}

		curve, err := ProfileRefs(refs, line)
		if err != nil {
			t.Fatal(err)
		}
		c, err := cache.New(cache.Config{Size: size, LineSize: line, Assoc: 0})
		if err != nil {
			t.Fatal(err)
		}
		got, want := curve.HitRatio(size), cache.Measure(c, refs).HitRatio
		if got != want {
			t.Fatalf("line=%d size=%d refs=%d: MRC %v, simulator %v", line, size, len(refs), got, want)
		}
	})
}
