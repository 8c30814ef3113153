package core

import (
	"math"
	"testing"
	"testing/quick"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestParamsValidate(t *testing.T) {
	good := Params{E: 1e6, R: 32000, W: 0, Alpha: 0.5, Phi: 8, D: 4, L: 32, BetaM: 4}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid params rejected: %v", err)
	}
	cases := []struct {
		name string
		mod  func(*Params)
	}{
		{"zero E", func(p *Params) { p.E = 0 }},
		{"negative R", func(p *Params) { p.R = -1 }},
		{"negative W", func(p *Params) { p.W = -1 }},
		{"alpha above 1", func(p *Params) { p.Alpha = 1.5 }},
		{"zero D", func(p *Params) { p.D = 0 }},
		{"L below D", func(p *Params) { p.L = 2 }},
		{"beta below 1", func(p *Params) { p.BetaM = 0.5 }},
		{"phi above L/D", func(p *Params) { p.Phi = 9 }},
		{"negative phi", func(p *Params) { p.Phi = -1 }},
		{"more misses than instructions", func(p *Params) { p.R = 1e9 }},
	}
	for _, tc := range cases {
		p := good
		tc.mod(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestMissesEq1(t *testing.T) {
	p := Params{R: 3200, L: 32, W: 17}
	if got := p.Misses(); got != 117 {
		t.Fatalf("Λm = %g, want R/L + W = 117", got)
	}
}

func TestSFromHitRatio(t *testing.T) {
	s, err := SFromHitRatio(0.95)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(s, 19, 1e-12) {
		t.Fatalf("s(0.95) = %g, want 19", s)
	}
	if !almost(s/(s+1), 0.95, 1e-12) { // Eq. (4): HR = 1 − MR = s/(s+1)
		t.Fatal("s does not invert to the hit ratio")
	}
	for _, bad := range []float64{0, 1, -0.2, 1.5, math.NaN()} {
		if _, err := SFromHitRatio(bad); err == nil {
			t.Errorf("SFromHitRatio(%v) accepted", bad)
		}
	}
}

func TestExecutionTimeEq2ByHand(t *testing.T) {
	// E=1000, R=320 bytes, L=32, D=4, W=5, α=0.5, φ=8 (FS), βm=10.
	// Λm = 10 + 5 = 15.
	// X = (1000−15) + 10·8·10 + 0.5·80·10 + 5·10 = 985 + 800 + 400 + 50.
	p := Params{E: 1000, R: 320, W: 5, Alpha: 0.5, Phi: 8, D: 4, L: 32, BetaM: 10}
	if got := ExecutionTime(p); !almost(got, 2235, 1e-9) {
		t.Fatalf("X = %g, want 2235", got)
	}
	if got := MemoryDelayCycles(p); !almost(got, 1250, 1e-9) {
		t.Fatalf("delay cycles = %g, want 1250", got)
	}
}

func TestExecutionTimeWithBuffersDropsWriteTerms(t *testing.T) {
	p := Params{E: 1000, R: 320, W: 5, Alpha: 0.5, Phi: 8, D: 4, L: 32, BetaM: 10}
	if got := ExecutionTimeWithBuffers(p); !almost(got, 985+800, 1e-9) {
		t.Fatalf("X with buffers = %g, want 1785", got)
	}
}

func TestExecutionTimePipelinedEq9(t *testing.T) {
	// βp = 10 + 2·7 = 24; X = 985 + 10·24 + 0.5·10·24 + 5·10.
	p := Params{E: 1000, R: 320, W: 5, Alpha: 0.5, Phi: 8, D: 4, L: 32, BetaM: 10}
	if got := ExecutionTimePipelined(p, 2); !almost(got, 985+240+120+50, 1e-9) {
		t.Fatalf("pipelined X = %g, want 1395", got)
	}
}

func TestBetaP(t *testing.T) {
	if got := BetaP(10, 2, 32, 4); got != 24 {
		t.Fatalf("βp = %g, want 24", got)
	}
	// L = D: degenerates to βm.
	if got := BetaP(10, 2, 4, 4); got != 10 {
		t.Fatalf("βp(L=D) = %g, want 10", got)
	}
}

func TestBusDoublingLimitCases(t *testing.T) {
	// §4.1 first limit: L = 2D, βm = 2, α = α' = 0.5 ⇒ r = 2.5.
	r, err := MissRatioOfCaches(FeatureSpec{Feature: FeatureDoubleBus}, 0.5, 8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r, 2.5, 1e-12) {
		t.Fatalf("r at design limit = %g, want 2.5", r)
	}
	// Second limit: βm → ∞ ⇒ r → 2 (L'Hospital).
	r, err = MissRatioOfCaches(FeatureSpec{Feature: FeatureDoubleBus}, 0.5, 8, 4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r, 2, 1e-6) {
		t.Fatalf("r at large βm = %g, want → 2", r)
	}
	if lim := limitRatioLargeBeta(FeatureSpec{Feature: FeatureDoubleBus}, 0.5, 8, 4); !almost(lim, 2, 1e-12) {
		t.Fatalf("analytic limit = %g, want 2", lim)
	}
}

func TestHitRatioTradingHeadline(t *testing.T) {
	// "The performance loss due to reducing cache hit ratio from 0.95
	// to 0.9 (= 2·0.95−1) ... can be compensated by doubling the
	// external data bus": with r = 2, HR2 = 2·HR1 − 1.
	tr, err := DeltaHR(0.95, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(tr.NewHR, 0.90, 1e-12) {
		t.Fatalf("HR2 = %g, want 0.90", tr.NewHR)
	}
	if !almost(EquivalentHitRatio(0.95, 2), 0.90, 1e-12) {
		t.Fatal("EquivalentHitRatio identity broken")
	}
	// r = 2.5 ⇒ HR2 = 2.5·HR1 − 1.5.
	tr, err = DeltaHR(0.95, 2.5)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(tr.NewHR, 0.875, 1e-12) {
		t.Fatalf("HR2 = %g, want 0.875", tr.NewHR)
	}
	if !almost(EquivalentHitRatio(0.98, 2), 0.96, 1e-12) {
		t.Fatal("0.98 → 0.96 example broken")
	}
}

func TestDeltaHRValidityGuard(t *testing.T) {
	// A huge r must flag HR2 <= 0 as non-physical.
	tr, err := DeltaHR(0.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Valid {
		t.Fatalf("HR2 = %g flagged valid", tr.NewHR)
	}
	if _, err := DeltaHR(0.95, 0); err == nil {
		t.Fatal("r = 0 accepted")
	}
	if _, err := DeltaHR(1.2, 2); err == nil {
		t.Fatal("hit ratio 1.2 accepted")
	}
}

func TestDeltaHRWideBaseEq7(t *testing.T) {
	// §4.1: with L = 2D, βm = 2: r' = 0.4 ⇒ ΔHR = 0.6(1−HR2);
	// large βm: r' = 0.5 ⇒ ΔHR = 0.5(1−HR2).
	r, err := MissRatioOfCaches(FeatureSpec{Feature: FeatureDoubleBus}, 0.5, 8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	d, err := DeltaHRWideBase(0.9, 1/r)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(d, 0.6*(1-0.9), 1e-12) {
		t.Fatalf("ΔHR = %g, want 0.6·(1−HR)", d)
	}
	d, err = DeltaHRWideBase(0.9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(d, 0.5*(1-0.9), 1e-12) {
		t.Fatalf("ΔHR = %g, want 0.5·(1−HR)", d)
	}
	if _, err := DeltaHRWideBase(0.9, 1.5); err == nil {
		t.Fatal("r' above 1 accepted")
	}
}

func TestMissRatioOfCachesDomain(t *testing.T) {
	if _, err := MissRatioOfCaches(FeatureSpec{Feature: FeatureDoubleBus}, 0.5, 4, 4, 4); err == nil {
		t.Fatal("L < 2D accepted for bus doubling")
	}
	if _, err := MissRatioOfCaches(FeatureSpec{Feature: FeaturePartialStall, Phi: 0.5}, 0.5, 32, 4, 4); err == nil {
		t.Fatal("φ below 1 accepted")
	}
	if _, err := MissRatioOfCaches(FeatureSpec{Feature: FeaturePipelinedMemory, Q: 0}, 0.5, 32, 4, 4); err == nil {
		t.Fatal("q below 1 accepted")
	}
	if _, err := MissRatioOfCaches(FeatureSpec{Feature: Feature(99)}, 0.5, 32, 4, 4); err == nil {
		t.Fatal("unknown feature accepted")
	}
	if _, err := MissRatioOfCaches(FeatureSpec{Feature: FeatureDoubleBus}, -0.1, 32, 4, 4); err == nil {
		t.Fatal("negative alpha accepted")
	}
	if _, err := MissRatioOfCaches(FeatureSpec{Feature: FeatureDoubleBus}, 0.5, 32, 4, 0.5); err == nil {
		t.Fatal("βm below 1 accepted")
	}
}

func TestWriteBufferRatioTable3(t *testing.T) {
	// Write buffers: r = ((1+α)(L/D)βm − 1)/((L/D)βm − 1).
	r, err := MissRatioOfCaches(FeatureSpec{Feature: FeatureWriteBuffers}, 0.5, 8, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if want := (1.5*2*2 - 1) / (2*2 - 1); !almost(r, want, 1e-12) {
		t.Fatalf("write-buffer r = %g, want %g", r, want)
	}
}

func TestPartialStallRatio(t *testing.T) {
	// φ = 1 (best BL/BNL): r = ((L/D+α·L/D)βm−1)/((1+α·L/D)βm−1).
	r, err := MissRatioOfCaches(FeatureSpec{Feature: FeaturePartialStall, Phi: 1}, 0.5, 32, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	want := ((8.0+4)*10 - 1) / ((1.0+4)*10 - 1)
	if !almost(r, want, 1e-12) {
		t.Fatalf("partial-stall r = %g, want %g", r, want)
	}
	// φ = L/D degenerates to the baseline: r = 1.
	r, err = MissRatioOfCaches(FeatureSpec{Feature: FeaturePartialStall, Phi: 8}, 0.5, 32, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r, 1, 1e-12) {
		t.Fatalf("φ = L/D gives r = %g, want 1", r)
	}
}

func TestPipelinedRatioMeetsAxisAtQ(t *testing.T) {
	// At βm = q the pipelined system equals the non-pipelined one
	// (βp = q·L/D = (L/D)βm): r = 1, ΔHR = 0 — where the solid lines
	// meet the x-axis in Figures 3–5.
	r, err := MissRatioOfCaches(FeatureSpec{Feature: FeaturePipelinedMemory, Q: 2}, 0.5, 32, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(r, 1, 1e-12) {
		t.Fatalf("pipelined r at βm = q: %g, want 1", r)
	}
}

func TestPipelineCrossoverClosedForm(t *testing.T) {
	// §5.3: q = 2, L/D = 8 ⇒ βm* = 2·7/3 ≈ 4.67 ("about five or six").
	x, err := PipelineCrossover(2, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(x, 14.0/3, 1e-12) {
		t.Fatalf("crossover = %g, want 14/3", x)
	}
	if x < 4 || x > 6 {
		t.Fatalf("crossover %g outside the paper's five-or-six claim", x)
	}
	// L = 2D: pipelining never overtakes bus doubling (Figure 3).
	x, err = PipelineCrossover(2, 8, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !math.IsInf(x, 1) {
		t.Fatalf("L=2D crossover = %g, want +Inf", x)
	}
	if _, err := PipelineCrossover(2, 4, 4); err == nil {
		t.Fatal("L < 2D accepted")
	}
	if _, err := PipelineCrossover(0.5, 32, 4); err == nil {
		t.Fatal("q < 1 accepted")
	}
}

func TestCrossoverAgreesWithRatios(t *testing.T) {
	// The closed-form crossover must agree with direct comparison of
	// Table 3 ratios for every α and βm.
	x, err := PipelineCrossover(2, 32, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, alpha := range []float64{0, 0.25, 0.5, 0.75, 1} {
		for betaM := 2.0; betaM <= 20; betaM++ {
			beats, err := PipelineBeatsBus(alpha, 32, 4, betaM, 2)
			if err != nil {
				t.Fatal(err)
			}
			if want := betaM >= x; beats != want {
				t.Fatalf("α=%g βm=%g: beats=%v, closed form says %v", alpha, betaM, beats, want)
			}
		}
	}
}

func TestRankFeaturesSection53(t *testing.T) {
	// §5.3 ranking below the crossover: doubling bus > write buffers >
	// BNL, for a wide βm range and both line sizes, φ from Figure 1's
	// high measured values.
	for _, l := range []float64{8, 32} {
		for betaM := 6.0; betaM <= 20; betaM += 2 {
			phi := 0.9 * l / 4 // BNL1-like: 90% of full stalling
			if phi < 1 {
				phi = 1
			}
			ranked, err := RankFeatures(0.95, 0.5, l, 4, betaM, phi, 2)
			if err != nil {
				t.Fatal(err)
			}
			pos := map[Feature]int{}
			for i, tr := range ranked {
				pos[tr.Feature] = i
			}
			if pos[FeatureDoubleBus] > pos[FeatureWriteBuffers] ||
				pos[FeatureWriteBuffers] > pos[FeaturePartialStall] {
				t.Fatalf("L=%g βm=%g: ranking %v violates §5.3", l, betaM, ranked)
			}
		}
	}
}

func TestMeanDelayEquivalence(t *testing.T) {
	// §4.5: when X(D) = X(2D) by construction (R' = r·R), the mean
	// memory delay per data reference is equal in the two systems, and
	// the equality is independent of the non-load/store instruction
	// count. Hold total data references fixed (Λh+Λm = Λ'h+Λ'm).
	const (
		alpha = 0.5
		l     = 32.0
		d     = 4.0
		betaM = 10.0
	)
	r, err := MissRatioOfCaches(FeatureSpec{Feature: FeatureDoubleBus}, alpha, l, d, betaM)
	if err != nil {
		t.Fatal(err)
	}
	for _, nls := range []float64{0, 1e5, 7e5} {
		refs := 3e5
		base := Params{E: nls + refs, R: 320000, W: 0, Alpha: alpha, Phi: l / d, D: d, L: l, BetaM: betaM}
		wide := Params{E: nls + refs, R: r * 320000, W: 0, Alpha: alpha, Phi: l / (2 * d), D: 2 * d, L: l, BetaM: betaM}
		x1, x2 := ExecutionTime(base), ExecutionTime(wide)
		if !almost(x1, x2, 1e-6*x1) {
			t.Fatalf("NLS=%g: X(D)=%g != X(2D)=%g", nls, x1, x2)
		}
		m1 := MeanMemoryDelay(base, refs)
		m2 := MeanMemoryDelay(wide, refs)
		if !almost(m1, m2, 1e-9*m1) {
			t.Fatalf("NLS=%g: mean delays differ: %g vs %g", nls, m1, m2)
		}
	}
}

func TestMeanMemoryDelayDegenerate(t *testing.T) {
	p := Params{E: 100, R: 3200, L: 32, D: 4, Phi: 8, BetaM: 4}
	if got := MeanMemoryDelay(p, 0); got != 0 {
		t.Fatalf("zero refs delay = %g", got)
	}
	if got := MeanMemoryDelay(p, 50); got != 0 { // fewer refs than misses
		t.Fatalf("inconsistent refs delay = %g", got)
	}
}

func TestFeatureTradeoffEndToEnd(t *testing.T) {
	tr, err := FeatureTradeoff(FeatureSpec{Feature: FeatureDoubleBus}, 0.98, 0.5, 32, 4, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	// Figure 2 upper panel: base 98%, large βm, L=32 ⇒ ΔHR ≈ 2%.
	if !almost(tr.DeltaHR, 0.02, 1e-6) {
		t.Fatalf("ΔHR = %g, want ≈ 0.02", tr.DeltaHR)
	}
	if tr.Feature != FeatureDoubleBus || !tr.Valid {
		t.Fatalf("tradeoff metadata wrong: %+v", tr)
	}
}

func TestFeatureStrings(t *testing.T) {
	for _, f := range []Feature{FeatureDoubleBus, FeaturePartialStall, FeatureWriteBuffers, FeaturePipelinedMemory} {
		if f.String() == "" {
			t.Fatalf("feature %d has empty String", int(f))
		}
	}
	if Feature(42).String() != "Feature(42)" {
		t.Fatal("unknown feature String wrong")
	}
}

func TestDeltaHRPropertyMonotonicInR(t *testing.T) {
	// Property: ΔHR grows with r and shrinks with the base hit ratio's
	// miss ratio; HR1 − ΔHR == HR2 == 1 − r(1−HR1).
	f := func(hrPct, rTenths uint8) bool {
		hr := 0.5 + float64(hrPct%50)/100 // 0.50..0.99
		r := 1 + float64(rTenths%30)/10   // 1.0..3.9
		tr, err := DeltaHR(hr, r)
		if err != nil {
			return false
		}
		return almost(tr.NewHR, EquivalentHitRatio(hr, r), 1e-12) && tr.DeltaHR >= 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestBusWidthByteRatioEq3(t *testing.T) {
	// Full-blocking, α = α': must equal the Table 3 double-bus ratio.
	want, err := MissRatioOfCaches(FeatureSpec{Feature: FeatureDoubleBus}, 0.5, 32, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	got, err := BusWidthByteRatio(8, 4, 0.5, 0.5, 32, 4, 6)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(got, want, 1e-12) {
		t.Fatalf("Eq. 3 = %g, Table 3 = %g", got, want)
	}
	if _, err := BusWidthByteRatio(2, 1, 0.5, 0.5, 4, 4, 6); err == nil {
		t.Fatal("L < 2D accepted")
	}
}

func TestExampleOneShortLevy(t *testing.T) {
	// Example 1: 8K at 91% + 64-bit bus ≈ 32K at 95.5% + 32-bit bus.
	// The needed hit ratio must land within half a point of 95.5%.
	eq, err := ExampleOne(ShortLevyHR8K, ShortLevyHR32K, 0.5, 32, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if !almost(eq.NeededHR, 0.955, 0.005) {
		t.Fatalf("needed HR = %g, want ≈ 0.955", eq.NeededHR)
	}
	if eq.DeltaHR <= 0 || eq.RInv <= 0 || eq.RInv > 1 {
		t.Fatalf("equivalence internals wrong: %+v", eq)
	}
	if _, err := ExampleOne(1.2, 0.9, 0.5, 32, 4, 10); err == nil {
		t.Fatal("bad hit ratio accepted")
	}
}

func TestTradedHRShrinksWithMemoryCycle(t *testing.T) {
	// §5.1: "as the memory cycle time increases, the traded hit ratio
	// is reduced" (hit ratio becomes more precious).
	var prev = math.Inf(1)
	for betaM := 2.0; betaM <= 20; betaM++ {
		tr, err := FeatureTradeoff(FeatureSpec{Feature: FeatureDoubleBus}, 0.98, 0.5, 32, 4, betaM)
		if err != nil {
			t.Fatal(err)
		}
		if tr.DeltaHR > prev+1e-12 {
			t.Fatalf("βm=%g: ΔHR %g rose above %g", betaM, tr.DeltaHR, prev)
		}
		prev = tr.DeltaHR
	}
}

func TestTradedHRSmallerForLargerLines(t *testing.T) {
	// §5.1: with the same base hit ratio, the hit ratio traded for a
	// large line size is smaller than for a small line size.
	small, err := FeatureTradeoff(FeatureSpec{Feature: FeatureDoubleBus}, 0.98, 0.5, 8, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	large, err := FeatureTradeoff(FeatureSpec{Feature: FeatureDoubleBus}, 0.98, 0.5, 32, 4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if large.DeltaHR >= small.DeltaHR {
		t.Fatalf("ΔHR(L=32)=%g not below ΔHR(L=8)=%g", large.DeltaHR, small.DeltaHR)
	}
}

func TestFullStallHelpers(t *testing.T) {
	p := Params{E: 1000, R: 320, Alpha: 0.5, D: 4, L: 32, BetaM: 4}
	q := p.WithFullStall()
	if q.Phi != 8 {
		t.Fatalf("WithFullStall φ = %g, want 8", q.Phi)
	}
	if p.Phi != 0 {
		t.Fatal("WithFullStall mutated its receiver")
	}
}

func TestLimitRatioLargeBetaAllFeatures(t *testing.T) {
	cases := []struct {
		spec FeatureSpec
		want float64
	}{
		{FeatureSpec{Feature: FeatureDoubleBus}, 2},
		{FeatureSpec{Feature: FeaturePartialStall, Phi: 4}, 12.0 / 8},
		{FeatureSpec{Feature: FeatureWriteBuffers}, 1.5},
		{FeatureSpec{Feature: FeaturePipelinedMemory, Q: 2}, 8},
	}
	for _, tc := range cases {
		if got := limitRatioLargeBeta(tc.spec, 0.5, 32, 4); !almost(got, tc.want, 1e-12) {
			t.Errorf("%v: limit = %g, want %g", tc.spec.Feature, got, tc.want)
		}
	}
	if got := limitRatioLargeBeta(FeatureSpec{Feature: Feature(9)}, 0.5, 32, 4); !math.IsNaN(got) {
		t.Errorf("unknown feature limit = %g, want NaN", got)
	}
}

func TestErrorPropagationThroughWrappers(t *testing.T) {
	// The thin wrappers must surface domain errors from their cores.
	if _, err := FeatureTradeoff(FeatureSpec{Feature: FeatureDoubleBus}, 0.95, 0.5, 4, 4, 8); err == nil {
		t.Error("FeatureTradeoff passed L < 2D")
	}
	if _, err := FeatureTradeoff(FeatureSpec{Feature: FeatureDoubleBus}, 1.5, 0.5, 32, 4, 8); err == nil {
		t.Error("FeatureTradeoff passed bad hit ratio")
	}
	if _, err := MultiIssueTradeoff(FeatureSpec{Feature: FeatureDoubleBus}, 0.95, 0.5, 32, 4, 8, 0); err == nil {
		t.Error("MultiIssueTradeoff passed bad issue width")
	}
	if _, err := MultiIssueTradeoff(FeatureSpec{Feature: FeatureDoubleBus}, 2, 0.5, 32, 4, 8, 2); err == nil {
		t.Error("MultiIssueTradeoff passed bad hit ratio")
	}
	if _, err := ProfileTradeoff(FeatureSpec{Feature: FeatureDoubleBus}, WorkloadProfile{R: -1, L: 32}, 0.95, 4, 8); err == nil {
		t.Error("ProfileTradeoff passed bad profile")
	}
	if _, err := ProfileTradeoff(FeatureSpec{Feature: FeatureDoubleBus}, WorkloadProfile{R: 3200, Alpha: 0.5, L: 32}, 1.5, 4, 8); err == nil {
		t.Error("ProfileTradeoff passed bad hit ratio")
	}
	if _, err := PipelineBeatsBus(0.5, 4, 4, 8, 2); err == nil {
		t.Error("PipelineBeatsBus passed L < 2D")
	}
	if _, err := PipelineBeatsBus(0.5, 32, 4, 8, 0); err == nil {
		t.Error("PipelineBeatsBus passed q < 1")
	}
	if _, err := LineMissRatioOfCaches(0.5, 0.5, 5, 2, 32, 16, 4); err == nil {
		t.Error("LineMissRatioOfCaches passed L* <= L0")
	}
	if _, err := DeltaEHR(1.5, 0.5, 0.5, 5, 2, 16, 32, 4); err == nil {
		t.Error("DeltaEHR passed bad hit ratio")
	}
	if _, err := DeltaEHR(0.95, 0.5, 0.5, 5, 2, 32, 16, 4); err == nil {
		t.Error("DeltaEHR passed bad line order")
	}
	if _, err := LargerLineWorthIt(0.01, 1.5, 0.5, 0.5, 5, 2, 16, 32, 4); err == nil {
		t.Error("LargerLineWorthIt passed bad hit ratio")
	}
	if _, err := ReducedDelay(1.5, 0.96, 5, 2, 16, 32, 4); err == nil {
		t.Error("ReducedDelay passed bad hit ratio")
	}
	if _, err := PriceL2(0.9, 0.8, 0.5, 80); err == nil {
		t.Error("PriceL2 passed bad tL2")
	}
}
