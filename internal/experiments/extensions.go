package experiments

import (
	"fmt"
	"math"

	"tradeoff/internal/cache"
	"tradeoff/internal/core"
	"tradeoff/internal/memory"
	"tradeoff/internal/plot"
	"tradeoff/internal/stall"
	"tradeoff/internal/trace"
)

// The experiments below go beyond the paper's figures: the ablations
// DESIGN.md §7 calls out, the §6 future-work multi-issue model, and
// validations of the analytic model against the cycle-level engine.

// AblationAlpha (E13) sweeps the flush ratio α the unified comparisons
// fix at 0.5, showing how sensitive each feature's worth is to the
// dirty-line fraction: write buffers scale with α (they hide exactly
// the α term), bus doubling only partially, pipelining hardly at all.
func AblationAlpha(Options) ([]Artifact, error) {
	const (
		baseHR = 0.95
		l      = 32.0
		d      = 4.0
		betaM  = 10.0
	)
	chart := plot.Chart{
		Title:  "Ablation: hit ratio traded vs flush ratio alpha (L=32, D=4, beta_m=10, base HR 95%)",
		XLabel: "flush ratio alpha",
		YLabel: "hit ratio traded (%)",
	}
	specs := []core.FeatureSpec{
		{Feature: core.FeatureDoubleBus},
		{Feature: core.FeatureWriteBuffers},
		{Feature: core.FeaturePipelinedMemory, Q: 2},
	}
	for _, spec := range specs {
		s := plot.Series{Name: spec.Feature.String()}
		for alpha := 0.0; alpha <= 1.0001; alpha += 0.125 {
			tr, err := core.FeatureTradeoff(spec, baseHR, alpha, l, d, betaM)
			if err != nil {
				return nil, fmt.Errorf("ablation-alpha %v at α=%g: %w", spec.Feature, alpha, err)
			}
			s.X = append(s.X, alpha)
			s.Y = append(s.Y, 100*tr.DeltaHR)
		}
		chart.Series = append(chart.Series, s)
	}
	return []Artifact{{ID: "E13", Name: "ablation_alpha", Title: chart.Title, Chart: &chart}}, nil
}

// AblationQ (E14) sweeps the pipelined memory's readiness interval q,
// reporting both the hit ratio traded at a fixed βm and the crossover
// βm beyond which pipelining beats bus doubling.
func AblationQ(Options) ([]Artifact, error) {
	const (
		baseHR = 0.95
		alpha  = 0.5
		l      = 32.0
		d      = 4.0
	)
	t := plot.Table{
		Title:   "Ablation: pipelined memory vs readiness interval q (L=32, D=4, base HR 95%)",
		Columns: []string{"q", "dHR% at betaM=10", "dHR% at betaM=20", "crossover vs bus (betaM)"},
	}
	for _, q := range []float64{1, 2, 3, 4, 6, 8} {
		var dhr [2]float64
		for i, betaM := range []float64{10, 20} {
			tr, err := core.FeatureTradeoff(core.FeatureSpec{Feature: core.FeaturePipelinedMemory, Q: q}, baseHR, alpha, l, d, betaM)
			if err != nil {
				return nil, err
			}
			dhr[i] = 100 * tr.DeltaHR
		}
		x, err := core.PipelineCrossover(q, l, d)
		if err != nil {
			return nil, err
		}
		t.AddRowf(q, dhr[0], dhr[1], x)
	}
	return []Artifact{{ID: "E14", Name: "ablation_q", Title: t.Title, Table: &t}}, nil
}

// AblationFillOrder (E15) measures the BNL3 stalling factor under
// requested-word-first versus sequential chunk delivery — the design
// choice §3.2 implies but does not isolate. Sequential delivery makes
// the requested word arrive late for misses at the end of a line, so
// its φ must be at least as large.
func AblationFillOrder(o Options) ([]Artifact, error) {
	t := plot.Table{
		Title:   "Ablation: BNL3 stalling factor by fill order (8K 2-way, L=32, D=4, avg of six models)",
		Columns: []string{"betaM", "requested-first phi%", "sequential phi%", "penalty (points)"},
	}
	betas := []int64{2, 10, 30}
	if !o.Fast {
		betas = []int64{2, 5, 10, 15, 20, 30, 50}
	}
	for _, b := range betas {
		var frac [2]float64
		for i, order := range []memory.FillOrder{memory.RequestedFirst, memory.Sequential} {
			cfg := stall.Config{
				Cache:   fig1Cache(),
				Memory:  memory.Config{BetaM: b, BusWidth: 4, Order: order},
				Feature: stall.BNL3,
			}
			_, avg, err := averagePrograms(cfg, o.refsPerProgram(), o.seed(), o.Workers)
			if err != nil {
				return nil, err
			}
			frac[i] = 100 * avg.PhiFraction
		}
		t.AddRowf(b, frac[0], frac[1], frac[1]-frac[0])
	}
	return []Artifact{{ID: "E15", Name: "ablation_fillorder", Title: t.Title, Table: &t}}, nil
}

// WriteBufferDepth (E16) quantifies §4.3's "with an appropriate memory
// cycle time, the read-bypassing write buffers can completely hide the
// latency of cache flushes": the fraction of flush cycles hidden as a
// function of buffer depth and memory cycle time, measured by the
// cycle-level engine on the six workload models.
func WriteBufferDepth(o Options) ([]Artifact, error) {
	t := plot.Table{
		Title:   "Write buffers: write-stall cycles hidden vs no buffers (%), by depth and memory cycle time (32K 2-way, L=32, D=4)",
		Columns: []string{"betaM", "depth 1", "depth 2", "depth 4", "depth 8"},
	}
	betas := []int64{2, 20}
	if !o.Fast {
		betas = []int64{2, 3, 5, 10, 20}
	}
	// The paper's "completely hide" claim assumes bus idle time between
	// misses ("the processor will spend some time using the data on the
	// line just retrieved") — §4.3's "appropriate memory cycle time".
	// Use the Zipf general workload at 32K (≈96% hits): at small βm the
	// bus has idle time and hiding approaches 100%; at large βm the bus
	// saturates with fill + flush traffic and no depth can help — the
	// measured quantification of the paper's caveat.
	workload := trace.Collect(trace.ZipfReuse(trace.ZipfReuseConfig{
		Seed: o.seed(), Base: 0x1000_0000, Lines: 65536, Theta: 1.5, WriteFrac: 0.3,
	}), o.refsPerProgram())
	for _, b := range betas {
		cc := fig1Cache()
		cc.Size = 32 << 10
		base := stall.Config{
			Cache:   cc,
			Memory:  memory.Config{BetaM: b, BusWidth: 4},
			Feature: stall.BNL3,
		}
		unbuf, err := stall.Run(base, workload)
		if err != nil {
			return nil, err
		}
		exposedBase := unbuf.FlushStall + unbuf.WriteStall
		cells := []interface{}{b}
		for _, depth := range []int{1, 2, 4, 8} {
			cfg := base
			cfg.WriteBufferDepth = depth
			res, err := stall.Run(cfg, workload)
			if err != nil {
				return nil, err
			}
			// What the buffered run still exposes (full-buffer waits
			// and read conflicts) against the unbuffered write stall.
			hidden := 100.0
			if exposedBase > 0 {
				hidden = 100 * (1 - float64(res.BufferFull+res.Conflict)/float64(exposedBase))
			}
			cells = append(cells, hidden)
		}
		t.AddRowf(cells...)
	}
	return []Artifact{{ID: "E16", Name: "wbuf_depth", Title: t.Title, Table: &t}}, nil
}

// PipelinedSim (E17) validates Eq. (9) against the cycle-level engine:
// the measured per-miss fill stall of a full-stalling cache on a
// pipelined memory must equal βp = βm + q(L/D − 1) exactly, and the
// measured speedup must match the analytic ratio (L/D)βm / βp.
func PipelinedSim(o Options) ([]Artifact, error) {
	t := plot.Table{
		Title:   "Validation: measured pipelined fill stall vs Eq. (9) (FS, 8K 2-way, L=32, D=4, q=2)",
		Columns: []string{"betaM", "measured per-miss stall", "Eq.9 beta_p", "match", "measured speedup", "analytic speedup"},
	}
	betas := []int64{4, 10}
	if !o.Fast {
		betas = []int64{2, 4, 6, 10, 16, 20}
	}
	for _, b := range betas {
		pipe := stall.Config{
			Cache:   fig1Cache(),
			Memory:  memory.Config{BetaM: b, BusWidth: 4, Pipelined: true, Q: 2},
			Feature: stall.FS,
		}
		flat := pipe
		flat.Memory = memory.Config{BetaM: b, BusWidth: 4}
		_, avgP, err := averagePrograms(pipe, o.refsPerProgram(), o.seed(), o.Workers)
		if err != nil {
			return nil, err
		}
		_, avgF, err := averagePrograms(flat, o.refsPerProgram(), o.seed(), o.Workers)
		if err != nil {
			return nil, err
		}
		perMiss := float64(avgP.FillStall) / float64(avgP.Misses)
		bp := core.BetaP(float64(b), 2, 32, 4)
		match := "YES"
		if math.Abs(perMiss-bp) > 1e-9 {
			match = "NO"
		}
		measured := float64(avgF.FillStall) / float64(avgP.FillStall)
		analytic := 8 * float64(b) / bp
		t.AddRowf(b, perMiss, bp, match, measured, analytic)
	}
	return []Artifact{{ID: "E17", Name: "pipelined_sim", Title: t.Title, Table: &t}}, nil
}

// MultiIssue (E18) runs the paper's §6 future work: the unified
// comparison at issue widths 1, 2, 4 and 8. As issue width grows every
// feature's worth converges to its large-βm limit — memory delay
// dominates sooner, so hit ratio becomes uniformly more precious.
func MultiIssue(Options) ([]Artifact, error) {
	const (
		baseHR = 0.95
		alpha  = 0.5
		l      = 32.0
		d      = 4.0
		betaM  = 4.0 // small βm: where issue width matters most
	)
	t := plot.Table{
		Title:   "Extension (§6 future work): hit ratio traded vs issue width (L=32, D=4, beta_m=4, base HR 95%)",
		Columns: []string{"feature", "issue 1", "issue 2", "issue 4", "issue 8", "issue->inf limit"},
	}
	rows := []struct {
		spec  core.FeatureSpec
		limit float64
	}{
		{core.FeatureSpec{Feature: core.FeatureDoubleBus}, 0},
		{core.FeatureSpec{Feature: core.FeatureWriteBuffers}, 0},
		{core.FeatureSpec{Feature: core.FeaturePipelinedMemory, Q: 2}, 0},
	}
	for _, row := range rows {
		cells := []interface{}{row.spec.Feature.String()}
		for _, issue := range []float64{1, 2, 4, 8} {
			tr, err := core.MultiIssueTradeoff(row.spec, baseHR, alpha, l, d, betaM, issue)
			if err != nil {
				return nil, err
			}
			cells = append(cells, 100*tr.DeltaHR)
		}
		// The limit: issue → ∞ at the same βm — the hit cycle a miss
		// displaces vanishes entirely.
		rLim, err := core.MissRatioOfCachesMultiIssue(row.spec, alpha, l, d, betaM, 1e9)
		if err != nil {
			return nil, err
		}
		lim, err := core.DeltaHR(baseHR, rLim)
		if err != nil {
			return nil, err
		}
		cells = append(cells, 100*lim.DeltaHR)
		t.AddRowf(cells...)
	}
	return []Artifact{{ID: "E18", Name: "multiissue", Title: t.Title, Table: &t}}, nil
}

// WriteAround (E19) prices the features for a write-around cache
// (W > 0) measured by the simulator, against the write-allocate
// defaults — the Table 3 variant DESIGN.md §7 lists. Read-bypassing
// buffers gain the most: they hide the W·βm term too.
func WriteAround(o Options) ([]Artifact, error) {
	t := plot.Table{
		Title:   "Extension: Table 3 under write-around vs write-allocate (doduc model, 8K 2-way, D=4, beta_m=10)",
		Columns: []string{"feature", "r (write-allocate)", "r (write-around, measured W)", "buffers gain"},
	}
	// Measure a write-around profile.
	ccfg := fig1Cache()
	ccfg.WriteMiss = cache.WriteAround
	c, err := cache.New(ccfg)
	if err != nil {
		return nil, err
	}
	p := cache.Measure(c, trace.Collect(trace.MustProgram(trace.Doduc, o.seed()), o.refsPerProgram()))
	around := core.WorkloadProfile{R: float64(p.R), W: float64(p.W), Alpha: p.Alpha, L: 32}
	alloc := around
	alloc.W = 0
	specs := []core.FeatureSpec{
		{Feature: core.FeatureDoubleBus},
		{Feature: core.FeatureWriteBuffers},
		{Feature: core.FeaturePipelinedMemory, Q: 2},
	}
	for _, spec := range specs {
		ra, err := core.MissRatioOfCachesProfile(spec, alloc, 4, 10)
		if err != nil {
			return nil, err
		}
		rw, err := core.MissRatioOfCachesProfile(spec, around, 4, 10)
		if err != nil {
			return nil, err
		}
		note := ""
		if spec.Feature == core.FeatureWriteBuffers && rw > ra {
			note = "YES (hides W*betaM too)"
		}
		t.AddRowf(spec.Feature.String(), ra, rw, note)
	}
	return []Artifact{{ID: "E19", Name: "writearound", Title: t.Title, Table: &t}}, nil
}
