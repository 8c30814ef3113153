package mrc

import (
	"math"
	"testing"

	"tradeoff/internal/cache"
	"tradeoff/internal/trace"
)

// The epsilon policy of DESIGN.md §5.5, pinned here over every Table-3
// workload (the six SPEC92 programs) plus zipf:
//
//   - the exact curve equals the fully-associative LRU simulator
//     bit-for-bit (no epsilon at all);
//   - SHARDS-sampled curves stay within epsSampled of the exact curve
//     on the six programs; zipf's θ=1.5 popularity puts ≈40% of all
//     references on one block, so whether that block falls in the 10%
//     spatial sample dominates the curve — it is pinned separately, at
//     cache sizes of ≥64 lines, within epsSampledZipf;
//   - Smith-corrected set-associative estimates stay within epsAssoc
//     of a simulator with the same geometry, except swm256, whose
//     2 KiB row stride (256 cols × 8 B) aliases power-of-two set
//     indexing — the exact violation of the correction's
//     uniform-mapping assumption — and gets epsAssocStencil.
const (
	epsSampled      = 0.06
	epsSampledZipf  = 0.08
	epsAssoc        = 0.20
	epsAssocStencil = 0.40
	minSampledLines = 64
)

// isNearBy reports |got − want| ≤ eps — an absolute bound, which for
// ratios in [0, 1] is also a relative one.
func isNearBy(got, want, eps float64) bool {
	return math.Abs(got-want) <= eps
}

const (
	tolRefs = 20000
	tolSeed = 1994
)

var tolSizes = []int{1 << 10, 4 << 10, 16 << 10, 64 << 10}

// simHitRatio replays refs through one cache geometry.
func simHitRatio(t *testing.T, refs []trace.Ref, size, line, assoc int) float64 {
	t.Helper()
	c, err := cache.New(cache.Config{Size: size, LineSize: line, Assoc: assoc})
	if err != nil {
		t.Fatal(err)
	}
	return cache.Measure(c, refs).HitRatio
}

// TestExactMatchesSimulatorBitForBit is the exactness half of the
// harness: for fully-associative LRU write-allocate geometries the
// Mattson curve and the simulator are the same computation, so their
// float64 hit ratios must be identical — not close, identical.
func TestExactMatchesSimulatorBitForBit(t *testing.T) {
	for _, name := range trace.Workloads() {
		refs := trace.Collect(trace.MustWorkload(name, tolSeed), tolRefs)
		for _, line := range []int{16, 64} {
			curve, err := ProfileRefs(refs, line)
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range tolSizes {
				got := curve.HitRatio(size)
				want := simHitRatio(t, refs, size, line, 0)
				if got != want {
					t.Errorf("%s line=%d size=%d: MRC %v, simulator %v (diff %g)",
						name, line, size, got, want, got-want)
				}
			}
		}
	}
}

// TestSampledWithinEpsilon pins the SHARDS path: the default sampler's
// estimate stays within epsSampled of the exact curve on every Table-3
// program, and within epsSampledZipf on zipf at ≥minSampledLines-line
// caches (below which its mass concentration dominates — see the
// policy block above).
func TestSampledWithinEpsilon(t *testing.T) {
	for _, name := range trace.Workloads() {
		refs := trace.Collect(trace.MustWorkload(name, tolSeed), tolRefs)
		eps := epsSampled
		if name == trace.Zipf {
			eps = epsSampledZipf
		}
		for _, line := range []int{16, 64} {
			exact, err := ProfileRefs(refs, line)
			if err != nil {
				t.Fatal(err)
			}
			sampled, err := ProfileSampledRefs(refs, line, DefaultSampler())
			if err != nil {
				t.Fatal(err)
			}
			for _, size := range tolSizes {
				if name == trace.Zipf && size/line < minSampledLines {
					continue
				}
				got, want := sampled.HitRatio(size), exact.HitRatio(size)
				if !isNearBy(got, want, eps) {
					t.Errorf("%s line=%d size=%d: sampled %v, exact %v (diff %g > %g)",
						name, line, size, got, want, math.Abs(got-want), eps)
				}
			}
		}
	}
}

// TestAssocCorrectionWithinEpsilon pins Smith's binomial set-mapping
// correction against simulators of the same set-associative geometry.
func TestAssocCorrectionWithinEpsilon(t *testing.T) {
	for _, name := range trace.Workloads() {
		refs := trace.Collect(trace.MustWorkload(name, tolSeed), tolRefs)
		const line = 64
		curve, err := ProfileRefs(refs, line)
		if err != nil {
			t.Fatal(err)
		}
		eps := epsAssoc
		if name == trace.Swm256 {
			eps = epsAssocStencil
		}
		for _, assoc := range []int{1, 2, 4} {
			for _, size := range tolSizes {
				got := curve.HitRatioAssoc(size, assoc)
				want := simHitRatio(t, refs, size, line, assoc)
				if !isNearBy(got, want, eps) {
					t.Errorf("%s assoc=%d size=%d: corrected %v, simulator %v (diff %g > %g)",
						name, assoc, size, got, want, math.Abs(got-want), eps)
				}
			}
		}
	}
}
