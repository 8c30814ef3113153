package experiments

import (
	"strings"
	"testing"

	"tradeoff/internal/memory"
	"tradeoff/internal/plot"
	"tradeoff/internal/stall"
	"tradeoff/internal/trace"
)

func fast() Options { return Options{Fast: true} }

func runOne(t *testing.T, name string) []Artifact {
	t.Helper()
	arts, err := Run(name, fast())
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if len(arts) == 0 {
		t.Fatalf("%s produced no artifacts", name)
	}
	for _, a := range arts {
		if a.ID == "" || a.Name == "" {
			t.Fatalf("%s artifact missing metadata: %+v", name, a)
		}
		if out := a.Render(); len(out) < 20 {
			t.Fatalf("%s artifact %s rendered suspiciously short output: %q", name, a.Name, out)
		}
	}
	return arts
}

func seriesByName(t *testing.T, c *plot.Chart, name string) plot.Series {
	t.Helper()
	for _, s := range c.Series {
		if s.Name == name {
			return s
		}
	}
	t.Fatalf("chart %q has no series %q", c.Title, name)
	return plot.Series{}
}

func TestRegistryComplete(t *testing.T) {
	reg := Registry()
	if len(reg) != 30 {
		t.Fatalf("registry has %d experiments, want 30 (E0-E29)", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if seen[e.Name] {
			t.Fatalf("duplicate experiment %s", e.Name)
		}
		seen[e.Name] = true
	}
}

// TestAveragePrograms pins the one program-averaging path: one result
// per trace.Programs name, each equal to a direct stall.Run of that
// program's trace, and an average equal to stall.AverageResults of
// them in trace.Programs order. averagePrograms always replays
// trace.Programs, so no unknown name can reach it (simjob's
// TestRunBadJob pins that error); a failing replay must still surface.
func TestAveragePrograms(t *testing.T) {
	const refs, seed = 5000, 3
	cfg := stall.Config{
		Cache:   fig1Cache(),
		Memory:  memory.Config{BetaM: 10, BusWidth: 4},
		Feature: stall.BNL3,
	}
	per, avg, err := averagePrograms(cfg, refs, seed, 2)
	if err != nil {
		t.Fatal(err)
	}
	names := trace.Programs()
	if len(per) != len(names) {
		t.Fatalf("%d programs measured, want %d", len(per), len(names))
	}
	results := make([]stall.Result, len(names))
	for i, name := range names {
		got, ok := per[name]
		if !ok {
			t.Fatalf("no result for %s", name)
		}
		want, err := stall.Run(cfg, trace.Collect(trace.MustProgram(name, seed), refs))
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Errorf("%s: pooled result %+v, direct replay %+v", name, got, want)
		}
		results[i] = got
	}
	if _, want := stall.AverageResults(names, results); avg != want {
		t.Fatalf("average %+v, want stall.AverageResults %+v", avg, want)
	}

	bad := cfg
	bad.Cache.LineSize = 24
	if _, _, err := averagePrograms(bad, refs, seed, 2); err == nil {
		t.Fatal("invalid cache geometry accepted")
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", fast()); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestTable2Content(t *testing.T) {
	arts := runOne(t, "table2")
	out := arts[0].Render()
	for _, f := range []string{"FS", "BL", "BNL", "NB", "L/D"} {
		if !strings.Contains(out, f) {
			t.Fatalf("table2 missing %q:\n%s", f, out)
		}
	}
}

func TestTable3RatiosOrdered(t *testing.T) {
	arts := runOne(t, "table3")
	tab := arts[0].Table
	if len(tab.Rows) != 4 {
		t.Fatalf("table3 has %d rows, want 4 features", len(tab.Rows))
	}
	// At the design limit (L=8, D=4, βm=2) the doubling-bus row's r
	// must be the §4.1 limit 2.5.
	if got := tab.Rows[0][2]; got != "2.500" {
		t.Fatalf("doubling-bus r at design limit = %s, want 2.500", got)
	}
}

func TestFigure1ShapeMatchesPaper(t *testing.T) {
	arts := runOne(t, "figure1")
	chart := arts[0].Chart
	if len(chart.Series) != 4 {
		t.Fatalf("figure1 has %d series, want BL, BNL1, BNL2, BNL3", len(chart.Series))
	}
	bl := seriesByName(t, chart, stall.BL.String())
	bnl3 := seriesByName(t, chart, stall.BNL3.String())
	for i := range bl.X {
		// All percentages live in (0, 100].
		for _, s := range chart.Series {
			if s.Y[i] <= 0 || s.Y[i] > 100+1e-9 {
				t.Fatalf("series %s has out-of-range %%: %v", s.Name, s.Y[i])
			}
		}
		// BNL3 must stall no more than BL at every memory cycle time.
		if bnl3.Y[i] > bl.Y[i]+1e-9 {
			t.Fatalf("BNL3 %.1f%% above BL %.1f%% at βm=%g", bnl3.Y[i], bl.Y[i], bl.X[i])
		}
	}
	// Paper: BNL3 yields a 20-30% reduction in read-miss latency of a
	// full-blocking cache for βm < 15 — i.e. the BNL3 percentage sits
	// well below 100% at small βm (we accept 60-90%).
	if y := bnl3.Y[0]; y < 40 || y > 95 {
		t.Fatalf("BNL3 at βm=%g is %.1f%%, outside the paper's qualitative band", bnl3.X[0], y)
	}
	// BL approaches full stalling (>85%) at the largest βm.
	if y := bl.Y[len(bl.Y)-1]; y < 85 {
		t.Fatalf("BL at βm=%g is %.1f%%, want near 100%%", bl.X[len(bl.X)-1], y)
	}
}

func TestFigure2MatchesHeadlineNumbers(t *testing.T) {
	arts := runOne(t, "figure2")
	if len(arts) != 2 {
		t.Fatalf("figure2 produced %d artifacts, want 2 panels", len(arts))
	}
	upper := arts[0].Chart // base 98%
	l32 := seriesByName(t, upper, "L=32")
	l8 := seriesByName(t, upper, "L=8")
	// §5.1: L=32, long memory cycle ⇒ about 2% traded.
	last := len(l32.Y) - 1
	if l32.Y[last] < 1.9 || l32.Y[last] > 2.6 {
		t.Fatalf("L=32 traded %.2f%% at βm=%g, want ≈2%%", l32.Y[last], l32.X[last])
	}
	// §5.1: L=8 at βm=2 ⇒ 3%.
	if l8.X[0] != 2 || l8.Y[0] < 2.9 || l8.Y[0] > 3.1 {
		t.Fatalf("L=8 at design limit traded %.2f%%, want 3%%", l8.Y[0])
	}
	// Larger lines trade less hit ratio at every βm (§5.1).
	for i := range l32.Y {
		if l32.Y[i] > l8.Y[i] {
			t.Fatalf("L=32 trades more than L=8 at βm=%g", l32.X[i])
		}
	}
}

func TestFigure3PipelineNeverBeatsBus(t *testing.T) {
	arts := runOne(t, "figure3")
	chart := arts[0].Chart
	pipe := seriesByName(t, chart, "pipelined mem")
	bus := seriesByName(t, chart, "doubling bus")
	wb := seriesByName(t, chart, "write buffers")
	bnl := seriesByName(t, chart, "BNL1")
	for i := range pipe.X {
		if pipe.Y[i] > bus.Y[i]+1e-9 {
			t.Fatalf("L=8: pipelined (%.2f%%) beat bus doubling (%.2f%%) at βm=%g — contradicts Figure 3",
				pipe.Y[i], bus.Y[i], pipe.X[i])
		}
		if wb.Y[i] > bus.Y[i] {
			t.Fatalf("write buffers above bus doubling at βm=%g", pipe.X[i])
		}
		if bnl.Y[i] > wb.Y[i] {
			t.Fatalf("BNL1 above write buffers at βm=%g", pipe.X[i])
		}
	}
	// Pipeline curve meets the axis at βm = q = 2.
	if pipe.X[0] == 2 && pipe.Y[0] > 1e-9 {
		t.Fatalf("pipelined curve at βm=2 is %.3f%%, want 0", pipe.Y[0])
	}
}

func TestFigure4PipelineCrossesBus(t *testing.T) {
	arts := runOne(t, "figure4")
	chart := arts[0].Chart
	pipe := seriesByName(t, chart, "pipelined mem")
	bus := seriesByName(t, chart, "doubling bus")
	// At βm=2 pipe is 0; at βm=20 pipe must be far above bus (L=32).
	if pipe.Y[0] > 1e-9 {
		t.Fatalf("pipelined at βm=2: %.3f%%, want 0", pipe.Y[0])
	}
	last := len(pipe.Y) - 1
	if pipe.Y[last] <= bus.Y[last] {
		t.Fatalf("L=32: pipelined (%.2f%%) did not overtake bus (%.2f%%) at βm=%g",
			pipe.Y[last], bus.Y[last], pipe.X[last])
	}
}

func TestFigure5BNL3AboveFigure4BNL1(t *testing.T) {
	f4 := runOne(t, "figure4")[0].Chart
	f5 := runOne(t, "figure5")[0].Chart
	bnl1 := seriesByName(t, f4, "BNL1")
	bnl3 := seriesByName(t, f5, "BNL3")
	// BNL3 stalls less, so it trades at least as much hit ratio as
	// BNL1 at small memory cycle times (§5.3: "BNL3 has a higher
	// performance improvement when the memory cycle time is small").
	if bnl3.Y[0]+1e-9 < bnl1.Y[0] {
		t.Fatalf("BNL3 (%.2f%%) below BNL1 (%.2f%%) at βm=%g", bnl3.Y[0], bnl1.Y[0], bnl3.X[0])
	}
}

func TestFigure6ValidationAllMatch(t *testing.T) {
	arts := runOne(t, "figure6")
	var checked int
	for _, a := range arts {
		if a.Table == nil {
			continue
		}
		for _, row := range a.Table.Rows {
			for i, col := range a.Table.Columns {
				if col == "match" && row[i] != "YES" {
					t.Fatalf("Eq. 19 and Smith disagreed: %v", row)
				}
				if col == "match" {
					checked++
				}
			}
		}
	}
	if checked < 8 {
		t.Fatalf("only %d validation rows checked", checked)
	}
}

func TestExample1Equivalences(t *testing.T) {
	arts := runOne(t, "example1")
	if len(arts) != 2 {
		t.Fatalf("example1 artifacts = %d, want Short&Levy + simulated", len(arts))
	}
	// The Short & Levy case must hold (within the paper's rounding).
	for _, row := range arts[0].Table.Rows {
		verdict := row[len(row)-1]
		if !strings.HasPrefix(verdict, "yes") {
			t.Fatalf("Short&Levy equivalence failed: %v", row)
		}
	}
	// The simulated sweep must find a finite equivalent cache size for
	// at least the smaller base sizes (the paper's "modest multiple").
	sim := arts[1].Table
	found := 0
	for _, row := range sim.Rows {
		if !strings.Contains(row[3], "beyond") {
			found++
		}
	}
	if found < 2 {
		t.Fatalf("simulated sweep found equivalent sizes for only %d bases:\n%s", found, sim.Render())
	}
}

func TestRankingConsistent(t *testing.T) {
	arts := runOne(t, "ranking")
	for _, row := range arts[0].Table.Rows {
		if row[len(row)-1] != "YES" {
			t.Fatalf("ranking inconsistent with §5.3: %v", row)
		}
	}
}

func TestCrossoverTable(t *testing.T) {
	arts := runOne(t, "crossover")
	out := arts[0].Render()
	if !strings.Contains(out, "+Inf") {
		t.Fatalf("crossover table missing the L=2D +Inf row:\n%s", out)
	}
	if !strings.Contains(out, "4.667") {
		t.Fatalf("crossover table missing the 14/3 point:\n%s", out)
	}
}

func TestLimitsTable(t *testing.T) {
	arts := runOne(t, "limits")
	out := arts[0].Render()
	if !strings.Contains(out, "2.5") {
		t.Fatalf("limits table missing r=2.5:\n%s", out)
	}
	if !strings.Contains(out, "0.875") {
		t.Fatalf("limits table missing HR2=0.875:\n%s", out)
	}
}

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	arts, err := Run("all", fast())
	if err != nil {
		t.Fatal(err)
	}
	if len(arts) < 12 {
		t.Fatalf("all produced %d artifacts, want >= 12", len(arts))
	}
}

func TestArtifactSaveCSV(t *testing.T) {
	arts := runOne(t, "table2")
	path := t.TempDir() + "/a.csv"
	if err := arts[0].SaveCSV(path); err != nil {
		t.Fatal(err)
	}
	empty := Artifact{ID: "X"}
	if err := empty.SaveCSV(path); err == nil {
		t.Fatal("empty artifact saved")
	}
	if empty.Render() == "" {
		t.Fatal("empty artifact rendered nothing")
	}
}
