package mrc

import (
	"context"
	"math"
	"testing"

	"tradeoff/internal/trace"
)

// bruteDistance is the textbook O(refs × stackDepth) LRU stack, the
// oracle for stackTree.
type bruteStack struct {
	stack []uint64
}

func (b *bruteStack) access(block uint64) int {
	for i := len(b.stack) - 1; i >= 0; i-- {
		if b.stack[i] == block {
			d := len(b.stack) - 1 - i
			b.stack = append(b.stack[:i], b.stack[i+1:]...)
			b.stack = append(b.stack, block)
			return d
		}
	}
	b.stack = append(b.stack, block)
	return -1
}

func (b *bruteStack) remove(block uint64) {
	for i, x := range b.stack {
		if x == block {
			b.stack = append(b.stack[:i], b.stack[i+1:]...)
			return
		}
	}
}

func TestStackTreeMatchesBruteForce(t *testing.T) {
	tree := newStackTree()
	brute := &bruteStack{}
	rng := uint64(0x9E3779B97F4A7C15)
	// Enough accesses over enough blocks to force several renumber
	// compactions of the initial 1<<10-slot array.
	for i := 0; i < 20000; i++ {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		block := rng % 700
		got, want := tree.access(block), brute.access(block)
		if got != want {
			t.Fatalf("access %d (block %d): stackTree distance %d, brute force %d", i, block, got, want)
		}
		if rng%31 == 0 {
			victim := rng % 700
			tree.remove(victim)
			brute.remove(victim)
		}
		if tree.blocks() != len(brute.stack) {
			t.Fatalf("access %d: stackTree tracks %d blocks, brute force %d", i, tree.blocks(), len(brute.stack))
		}
	}
}

func TestProfilerSmallTrace(t *testing.T) {
	// a b c a b c: 3 cold misses, then 3 references at distance 2.
	p, err := NewProfiler(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range []uint64{0, 1, 2, 0, 1, 2} {
		p.Access(b * 64)
	}
	c := p.Curve()
	if c.Refs != 6 || c.Blocks != 3 {
		t.Fatalf("Refs=%d Blocks=%d, want 6 and 3", c.Refs, c.Blocks)
	}
	if got := c.ColdMisses(); got != 3 {
		t.Fatalf("ColdMisses=%g, want 3", got)
	}
	if got := c.MaxDistance(); got != 2 {
		t.Fatalf("MaxDistance=%d, want 2", got)
	}
	// 2 lines: distance 2 misses. 3 lines: distance 2 hits.
	if got := c.HitRatio(2 * 64); got != 0 {
		t.Fatalf("HitRatio(2 lines)=%g, want 0", got)
	}
	if got, want := c.HitRatio(3*64), 0.5; got != want {
		t.Fatalf("HitRatio(3 lines)=%g, want %g", got, want)
	}
	if got, want := c.MissRatio(3*64), 0.5; got != want {
		t.Fatalf("MissRatio(3 lines)=%g, want %g", got, want)
	}
}

func TestCurveMonotone(t *testing.T) {
	c, err := ProfileSource(trace.MustWorkload(trace.Ear, 1), 30000, 32)
	if err != nil {
		t.Fatal(err)
	}
	prev := -1.0
	for size := 32; size <= 1<<20; size *= 2 {
		hr := c.HitRatio(size)
		if hr < prev {
			t.Fatalf("HitRatio not monotone: %g at %d bytes after %g", hr, size, prev)
		}
		if hr < 0 || hr > 1 {
			t.Fatalf("HitRatio(%d)=%g outside [0,1]", size, hr)
		}
		prev = hr
	}
	// A cache bigger than every observed distance only misses cold.
	huge := int(c.MaxDistance()+2) * 32 * 2
	want := 1 - c.ColdMisses()/float64(c.Refs)
	if got := c.HitRatio(huge); math.Abs(got-want) > 1e-12 {
		t.Fatalf("HitRatio(huge)=%g, want 1-cold/refs=%g", got, want)
	}
}

func TestEmptyCurve(t *testing.T) {
	p, err := NewProfiler(64)
	if err != nil {
		t.Fatal(err)
	}
	c := p.Curve()
	if got := c.HitRatio(1 << 20); got != 0 {
		t.Fatalf("empty curve HitRatio=%g, want 0 (matching cache.Stats)", got)
	}
	if got := c.MissRatio(1 << 20); got != 0 {
		t.Fatalf("empty curve MissRatio=%g, want 0", got)
	}
}

func TestNewProfilerRejectsBadLineSize(t *testing.T) {
	for _, bad := range []int{0, -8, 24, 100} {
		if _, err := NewProfiler(bad); err == nil {
			t.Errorf("NewProfiler(%d): want error", bad)
		}
		if _, err := NewSampledProfiler(bad, DefaultSampler()); err == nil {
			t.Errorf("NewSampledProfiler(%d): want error", bad)
		}
	}
}

func TestSamplerConfigValidate(t *testing.T) {
	cases := []struct {
		cfg SamplerConfig
		ok  bool
	}{
		{SamplerConfig{Rate: 0.1, Budget: 1}, true},
		{SamplerConfig{Rate: 1, Budget: 1 << 20}, true},
		{SamplerConfig{Rate: 0, Budget: 100}, false},
		{SamplerConfig{Rate: -0.5, Budget: 100}, false},
		{SamplerConfig{Rate: 1.5, Budget: 100}, false},
		{SamplerConfig{Rate: math.NaN(), Budget: 100}, false},
		{SamplerConfig{Rate: 0.5, Budget: 0}, false},
	}
	for _, tc := range cases {
		err := tc.cfg.Validate()
		if tc.ok && err != nil {
			t.Errorf("Validate(%+v): unexpected error %v", tc.cfg, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("Validate(%+v): want error", tc.cfg)
		}
	}
	if err := DefaultSampler().Validate(); err != nil {
		t.Errorf("DefaultSampler invalid: %v", err)
	}
}

func TestSampledRateOneMatchesExact(t *testing.T) {
	// At rate 1 with an unconstrained budget every block is tracked
	// with weight 1, so the SHARDS curve degenerates to the exact one.
	const refs, line = 20000, 64
	exact, err := ProfileSource(trace.MustWorkload(trace.Swm256, 7), refs, line)
	if err != nil {
		t.Fatal(err)
	}
	sampled, err := ProfileSampledRefs(trace.Collect(trace.MustWorkload(trace.Swm256, 7), refs), line,
		SamplerConfig{Rate: 1, Budget: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	for size := line; size <= 1<<20; size *= 2 {
		if g, w := sampled.HitRatio(size), exact.HitRatio(size); g != w {
			t.Fatalf("rate-1 sampled HitRatio(%d)=%g, exact %g", size, g, w)
		}
	}
	if sampled.Blocks != exact.Blocks || sampled.Refs != exact.Refs {
		t.Fatalf("rate-1 sampled Blocks/Refs %d/%d, exact %d/%d",
			sampled.Blocks, sampled.Refs, exact.Blocks, exact.Refs)
	}
}

func TestSampledBudgetBoundsTracking(t *testing.T) {
	const budget = 128
	p, err := NewSampledProfiler(64, SamplerConfig{Rate: 1, Budget: budget})
	if err != nil {
		t.Fatal(err)
	}
	// Touch far more distinct blocks than the budget allows.
	for b := uint64(0); b < 64*budget; b++ {
		p.Access(b * 64)
		if got := p.tree.blocks(); got > budget {
			t.Fatalf("tracked %d blocks, budget %d", got, budget)
		}
	}
	if r := p.Rate(); r >= 1 {
		t.Fatalf("rate %g did not adapt below the initial 1", r)
	}
	c := p.Curve()
	if !c.Sampled {
		t.Fatal("curve not marked sampled")
	}
	// SHARDS_adj pins the weighted total to the observed references.
	if math.Abs(c.totalW-float64(c.Refs)) > 1e-6*float64(c.Refs) {
		t.Fatalf("rescaled total %g, want %d", c.totalW, c.Refs)
	}
}

func TestHitProb(t *testing.T) {
	if got := hitProb(3, 4, 0.25); got != 1 {
		t.Fatalf("hitProb(d<assoc)=%g, want 1", got)
	}
	// d=2, assoc=1, p=0.5: hit iff both intervening blocks avoid the
	// set: 0.25.
	if got, want := hitProb(2, 1, 0.5), 0.25; math.Abs(got-want) > 1e-12 {
		t.Fatalf("hitProb(2,1,0.5)=%g, want %g", got, want)
	}
	// Monotone: deeper distances cannot raise the hit probability.
	prev := 1.0
	for d := uint64(0); d < 200; d += 7 {
		got := hitProb(d, 4, 1.0/16)
		if got > prev+1e-12 {
			t.Fatalf("hitProb not monotone at d=%d: %g after %g", d, got, prev)
		}
		if got < 0 || got > 1 {
			t.Fatalf("hitProb(%d)=%g outside [0,1]", d, got)
		}
		prev = got
	}
}

func TestHitRatioAssocFallsBackToExact(t *testing.T) {
	c, err := ProfileSource(trace.MustWorkload(trace.Ear, 3), 20000, 64)
	if err != nil {
		t.Fatal(err)
	}
	for _, size := range []int{1 << 12, 1 << 14, 1 << 16} {
		if g, w := c.HitRatioAssoc(size, 0), c.HitRatio(size); g != w {
			t.Fatalf("HitRatioAssoc(%d, 0)=%g, want exact %g", size, g, w)
		}
		// One set (assoc == lines) is fully associative.
		if g, w := c.HitRatioAssoc(size, size/64), c.HitRatio(size); g != w {
			t.Fatalf("HitRatioAssoc(%d, lines)=%g, want exact %g", size, g, w)
		}
	}
}

func TestSpecValidate(t *testing.T) {
	good := Spec{Workload: trace.Ear, Refs: 1000, LineSize: 64}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	bad := []Spec{
		{Workload: "mystery", Refs: 1000, LineSize: 64},
		{Workload: trace.Ear, Refs: 0, LineSize: 64},
		{Workload: trace.Ear, Refs: 1000, LineSize: 48},
		{Workload: trace.Ear, Refs: 1000, LineSize: 64, Sampled: true},
	}
	for _, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("Validate(%+v): want error", s)
		}
	}
}

func TestSpecKeyDistinguishes(t *testing.T) {
	base := Spec{Workload: trace.Ear, Seed: 1, Refs: 1000, LineSize: 64}
	variants := []Spec{
		{Workload: trace.Doduc, Seed: 1, Refs: 1000, LineSize: 64},
		{Workload: trace.Ear, Seed: 2, Refs: 1000, LineSize: 64},
		{Workload: trace.Ear, Seed: 1, Refs: 2000, LineSize: 64},
		{Workload: trace.Ear, Seed: 1, Refs: 1000, LineSize: 32},
		{Workload: trace.Ear, Seed: 1, Refs: 1000, LineSize: 64, Sampled: true, Sampler: DefaultSampler()},
	}
	seen := map[string]bool{base.key(): true}
	for _, v := range variants {
		if seen[v.key()] {
			t.Errorf("spec %+v collides with an earlier key %q", v, v.key())
		}
		seen[v.key()] = true
	}
}

func TestCurveCacheMemoizes(t *testing.T) {
	cc := NewCurveCache(0, 0)
	spec := Spec{Workload: trace.Ear, Seed: 1, Refs: 5000, LineSize: 64}
	c1, shared, err := cc.Get(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if shared {
		t.Fatal("first Get reported shared")
	}
	c2, shared, err := cc.Get(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !shared {
		t.Fatal("second Get did not hit the memo")
	}
	if c1 != c2 {
		t.Fatal("memo returned a different curve")
	}
	if cc.Len() != 1 {
		t.Fatalf("cache holds %d curves, want 1", cc.Len())
	}
	if _, _, err := cc.Get(context.Background(), Spec{Workload: "nope", Refs: 1, LineSize: 64}); err == nil {
		t.Fatal("invalid spec accepted")
	}
}
