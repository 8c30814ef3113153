package experiments

import (
	"fmt"

	"tradeoff/internal/cache"
	"tradeoff/internal/linesize"
	"tradeoff/internal/missratio"
	"tradeoff/internal/plot"
	"tradeoff/internal/trace"
)

// figure6Configs returns the four design points of Figure 6 with the
// candidate line sizes the paper plots; the first line (8 B) is the
// comparison base L0.
func figure6Configs() []struct {
	label string
	quote string // the optimal line Smith's design targets chose
	cfg   linesize.Config
} {
	lines := []int{8, 16, 32, 64, 128}
	return []struct {
		label string
		quote string
		cfg   linesize.Config
	}{
		{"a_16K_D4_360ns_15nsB", "Smith: 32 bytes at beta=2",
			linesize.Config{CacheSize: 16 << 10, BusWidth: 4, LatencyNS: 360, NSPerByte: 15, Lines: lines}},
		{"b_16K_D8_160ns_15nsB", "Smith: 16 bytes at beta=3",
			linesize.Config{CacheSize: 16 << 10, BusWidth: 8, LatencyNS: 160, NSPerByte: 15, Lines: lines}},
		{"c_16K_D8_600ns_4nsB", "Smith: 64 or 128 bytes at beta=1",
			linesize.Config{CacheSize: 16 << 10, BusWidth: 8, LatencyNS: 600, NSPerByte: 4, Lines: lines}},
		{"d_8K_D8_360ns_15nsB", "Smith: 32 bytes at beta=2",
			linesize.Config{CacheSize: 8 << 10, BusWidth: 8, LatencyNS: 360, NSPerByte: 15, Lines: lines}},
	}
}

// fig6Betas is the normalized bus-speed sweep of Figure 6.
func fig6Betas(o Options) []float64 {
	if o.Fast {
		return []float64{1, 2, 5, 10}
	}
	betas := make([]float64, 0, 20)
	for b := 0.5; b <= 10; b += 0.5 {
		betas = append(betas, b)
	}
	return betas
}

// Figure6 reproduces Figure 6: for each of the four design points, the
// reduced memory delay per reference (Eq. 19, scaled by 10^4 for
// readability) of each line size versus normalized bus speed β, using
// the calibrated design-target miss-ratio surface. The agreement table
// shows the optimum Eq. (19) selects against Smith's criterion at
// every β — the paper's validation result.
func Figure6(o Options) ([]Artifact, error) {
	m := missratio.DefaultModel()
	var arts []Artifact

	agreement := plot.Table{
		Title:   "Figure 6 validation: optimal line by Smith's criterion (Eq. 16) vs Eq. (19)",
		Columns: []string{"config", "beta", "smith", "eq19", "match", "paper quote"},
	}
	for _, c := range figure6Configs() {
		chart := plot.Chart{
			Title: fmt.Sprintf("Figure 6(%s): reduced memory delay x1e4 (%s)",
				c.label[:1], c.quote),
			XLabel: "normalized bus speed (beta)",
			YLabel: "reduced delay per ref x1e4",
		}
		perLine := map[int]*plot.Series{}
		for _, l := range c.cfg.Lines[1:] {
			perLine[l] = &plot.Series{Name: fmt.Sprintf("L=%d", l)}
		}
		for _, beta := range fig6Betas(o) {
			pts, err := linesize.ReducedDelays(m, c.cfg, beta)
			if err != nil {
				return nil, fmt.Errorf("figure6 %s: %w", c.label, err)
			}
			for _, p := range pts[1:] {
				s := perLine[p.Line]
				s.X = append(s.X, beta)
				s.Y = append(s.Y, 1e4*p.Reduced)
			}
			smith, err := linesize.SmithOptimal(m, c.cfg, beta)
			if err != nil {
				return nil, err
			}
			eq19, err := linesize.Eq19Optimal(m, c.cfg, beta)
			if err != nil {
				return nil, err
			}
			match := "YES"
			if smith != eq19 {
				match = "NO"
			}
			agreement.AddRowf(c.label, beta, smith, eq19, match, c.quote)
		}
		for _, l := range c.cfg.Lines[1:] {
			chart.Series = append(chart.Series, *perLine[l])
		}
		arts = append(arts, Artifact{ID: "E8", Name: "figure6_" + c.label, Title: chart.Title, Chart: &chart})
	}
	arts = append(arts, Artifact{ID: "E8", Name: "figure6_validation", Title: agreement.Title, Table: &agreement})

	// Cross-check on simulator-derived miss ratios for the 8K config.
	simArt, err := figure6Simulated(o)
	if err != nil {
		return nil, err
	}
	return append(arts, simArt), nil
}

// figure6Simulated repeats the validation over a miss-ratio table
// measured by the cache simulator on the SPEC92-like models, showing
// the substitution (DESIGN.md §4) does not drive the result.
func figure6Simulated(o Options) (Artifact, error) {
	refs := o.refsPerProgram()
	if !o.Fast {
		refs /= 2 // five line-size sweeps over six programs: keep it bounded
	}
	tab := missratio.NewTable()
	lines := []int{8, 16, 32, 64, 128}
	for _, ls := range lines {
		var mrSum float64
		for _, prog := range trace.Programs() {
			c, err := cache.New(cache.Config{Size: 8 << 10, LineSize: ls, Assoc: 2})
			if err != nil {
				return Artifact{}, err
			}
			p := cache.Measure(c, trace.Collect(trace.MustProgram(prog, o.seed()), refs))
			mrSum += 1 - p.HitRatio
		}
		tab.Set(8<<10, ls, mrSum/6)
	}
	cfg := linesize.Config{CacheSize: 8 << 10, BusWidth: 8, LatencyNS: 360, NSPerByte: 15, Lines: lines}
	t := plot.Table{
		Title:   "Figure 6 validation on simulated miss ratios (8K, D=8, 360ns+15ns/B)",
		Columns: []string{"beta", "miss-ratio source", "smith", "eq19", "match"},
	}
	for _, beta := range fig6Betas(o) {
		smith, err := linesize.SmithOptimal(tab, cfg, beta)
		if err != nil {
			return Artifact{}, err
		}
		eq19, err := linesize.Eq19Optimal(tab, cfg, beta)
		if err != nil {
			return Artifact{}, err
		}
		match := "YES"
		if smith != eq19 {
			match = "NO"
		}
		t.AddRowf(beta, "simulator", smith, eq19, match)
	}
	return Artifact{ID: "E8", Name: "figure6_simulated", Title: t.Title, Table: &t}, nil
}
