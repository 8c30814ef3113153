package sweep

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"tradeoff/internal/model"
	"tradeoff/internal/trace"
)

// goldenExample runs the -example config at the given pool size and
// returns the CSV bytes.
func goldenExample(t *testing.T, workers int) []byte {
	t.Helper()
	cfg, err := ParseConfig([]byte(ExampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	ds, err := Run(context.Background(), cfg, workers)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteCSV(&buf, ds); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestGoldenExample pins the engine to the byte-exact CSV the original
// serial cmd/sweep emitted for the -example config
// (testdata/example_golden.csv, captured before the parallel rewrite),
// at several pool sizes: parallelism must not change a single byte.
func TestGoldenExample(t *testing.T) {
	want, err := os.ReadFile("testdata/example_golden.csv")
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4, 0} {
		got := goldenExample(t, workers)
		if !bytes.Equal(got, want) {
			t.Errorf("workers=%d: CSV differs from the serial golden output\ngot:\n%s\nwant:\n%s",
				workers, got, want)
		}
	}
}

// TestParallelMatchesSerialSim repeats the determinism check on the
// simulated hit-ratio path, whose per-point work is heavy enough that
// workers genuinely interleave.
func TestParallelMatchesSerialSim(t *testing.T) {
	cfg := Config{
		CacheKB: []int{4, 8, 16}, LineBytes: []int{16, 32}, BusBits: []int{32, 64},
		LatencyNS: 360, TransferNS: 60, CPUNS: 30,
		HitSource: "sim:zipf", SimRefs: 5000,
	}
	run := func(workers int) []byte {
		ds, err := Run(context.Background(), cfg, workers)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteCSV(&buf, ds); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	serial := run(1)
	parallel := run(8)
	if !bytes.Equal(serial, parallel) {
		t.Fatalf("parallel sim sweep differs from serial:\n%s\nvs\n%s", parallel, serial)
	}
}

func TestRunCancelled(t *testing.T) {
	cfg, err := ParseConfig([]byte(ExampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, cfg, 2); err != context.Canceled {
		t.Fatalf("Run on a cancelled context: err = %v, want context.Canceled", err)
	}
}

func TestValidateRejects(t *testing.T) {
	cases := []string{
		`{`,
		`{"cache_kb": [], "line_bytes": [32], "bus_bits": [32], "latency_ns": 1, "transfer_ns": 1, "cpu_ns": 1}`,
		`{"cache_kb": [8], "line_bytes": [32], "bus_bits": [32], "latency_ns": 0, "transfer_ns": 1, "cpu_ns": 1}`,
		`{"cache_kb": [8], "line_bytes": [32], "bus_bits": [32], "latency_ns": 1, "transfer_ns": 1, "cpu_ns": 1, "hit_source": "psychic"}`,
		`{"cache_kb": [-8], "line_bytes": [32], "bus_bits": [32], "latency_ns": 1, "transfer_ns": 1, "cpu_ns": 1}`,
		`{"cache_kb": [8], "line_bytes": [0], "bus_bits": [32], "latency_ns": 1, "transfer_ns": 1, "cpu_ns": 1}`,
		`{"cache_kb": [8], "line_bytes": [32], "bus_bits": [12], "latency_ns": 1, "transfer_ns": 1, "cpu_ns": 1}`,
		`{"cache_kb": [8], "line_bytes": [32], "bus_bits": [32], "latency_ns": 1, "transfer_ns": 1, "cpu_ns": 1, "sim_refs": -1}`,
		`{"cache_kb": [8], "line_bytes": [32], "bus_bits": [32], "latency_ns": 1, "transfer_ns": 1, "cpu_ns": 1, "addr_bits": 4096}`,
	}
	for i, body := range cases {
		if _, err := ParseConfig([]byte(body)); err == nil {
			t.Errorf("case %d: bad config accepted: %s", i, body)
		}
	}
}

// TestValidateHitSourceSuffix is the regression test for the bare-
// prefix bug: "mrc:", "mrc~:", "sim:" and "an:" with an empty or
// unknown workload suffix used to pass Validate (the check was a
// plain HasPrefix) and only fail deep inside the run. They must now
// be rejected up front, with an error that names the known workloads.
// The messages are part of the service's 400 responses, so they are
// pinned byte for byte.
func TestValidateHitSourceSuffix(t *testing.T) {
	base := `{"cache_kb":[8],"line_bytes":[32],"bus_bits":[32],"latency_ns":1,"transfer_ns":1,"cpu_ns":1,"hit_source":%q}`
	const known = "nasa7, swm256, wave5, ear, doduc, hydro2d, zipf"
	for _, src := range []string{"mrc:", "mrc~:", "sim:", "an:", "mrc:gcc", "mrc~:gcc", "sim:gcc", "an:gcc"} {
		_, err := ParseConfig([]byte(fmt.Sprintf(base, src)))
		if err == nil {
			t.Errorf("hit_source %q accepted, want a validation error", src)
			continue
		}
		prefix, name, _ := strings.Cut(src, ":")
		want := fmt.Sprintf("sweep: hit_source %q: unknown workload %q, want one of %s", src, name, known)
		if name == "" {
			want = fmt.Sprintf("sweep: hit_source %q names no workload: %q must be followed by one of %s", src, prefix+":", known)
		}
		if err.Error() != want {
			t.Errorf("hit_source %q: error\n%s\nwant\n%s", src, err, want)
		}
	}
	for _, src := range []string{"model", "sim:zipf", "mrc:ear", "mrc~:nasa7", "an:hydro2d"} {
		if _, err := ParseConfig([]byte(fmt.Sprintf(base, src))); err != nil {
			t.Errorf("hit_source %q rejected: %v", src, err)
		}
	}
}

// TestValidateMode pins the mode enum and its default.
func TestValidateMode(t *testing.T) {
	base := `{"cache_kb":[8],"line_bytes":[32],"bus_bits":[32],"latency_ns":1,"transfer_ns":1,"cpu_ns":1,"mode":%q}`
	for _, m := range []string{ModeExact, ModeModel, ModeAuto} {
		if _, err := ParseConfig([]byte(fmt.Sprintf(base, m))); err != nil {
			t.Errorf("mode %q rejected: %v", m, err)
		}
	}
	for _, m := range []string{"fast", "EXACT", "analytic"} {
		if _, err := ParseConfig([]byte(fmt.Sprintf(base, m))); err == nil {
			t.Errorf("mode %q accepted", m)
		}
	}
	cfg, err := ParseConfig([]byte(`{"cache_kb":[8],"line_bytes":[32],"bus_bits":[32],"latency_ns":1,"transfer_ns":1,"cpu_ns":1}`))
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Mode != ModeExact {
		t.Errorf("default mode = %q, want %q", cfg.Mode, ModeExact)
	}
}

// TestEffectiveHitSource pins the hit_source grammar and the mode
// rule: every accepted spelling parses to a Source whose String is the
// spelling itself, Resolve re-prices every workload-bearing tier on
// the analytic tier outside exact mode — the same answer the stall
// grid stamps on a replayed program's points — and EffectiveHitSource
// is that resolution spelled out.
func TestEffectiveHitSource(t *testing.T) {
	tiers := map[string]Tier{"an:": TierAnalytic, "sim:": TierSim, "mrc:": TierMRC, "mrc~:": TierMRCSampled}
	for _, w := range trace.Workloads() {
		grid := Source{Tier: TierSim, Workload: w} // a stall grid's replayed program
		for prefix, tier := range tiers {
			spelling := prefix + w
			src, err := ParseSource(spelling)
			if err != nil {
				t.Fatalf("ParseSource(%q): %v", spelling, err)
			}
			if want := (Source{Tier: tier, Workload: w}); src != want {
				t.Errorf("ParseSource(%q) = %+v, want %+v", spelling, src, want)
			}
			if got := src.String(); got != spelling {
				t.Errorf("ParseSource(%q).String() = %q", spelling, got)
			}
			if got := src.Resolve(ModeExact); got != src {
				t.Errorf("%q resolves to %v in exact mode, want itself", spelling, got)
			}
			for _, mode := range []string{ModeModel, ModeAuto} {
				got := src.Resolve(mode)
				if want := (Source{Tier: TierAnalytic, Workload: w}); got != want || got != grid.Resolve(mode) {
					t.Errorf("%q resolves to %v in mode %q, want %v like the stall grid's %v",
						spelling, got, mode, want, grid.Resolve(mode))
				}
				eff, err := (Config{Mode: mode, HitSource: spelling}).EffectiveHitSource()
				if err != nil || eff != "an:"+w {
					t.Errorf("mode %q src %q: EffectiveHitSource = %q, %v, want an:%s", mode, spelling, eff, err, w)
				}
				if b := got.ErrorBound(); b != model.ErrorBound(w) {
					t.Errorf("%v.ErrorBound() = %v, want %v", got, b, model.ErrorBound(w))
				}
			}
			if tier != TierAnalytic && src.ErrorBound() != 0 {
				t.Errorf("%q carries error bound %v, want 0 off the analytic tier", spelling, src.ErrorBound())
			}
		}
	}
	// The calibrated surface carries no workload: nothing to re-price.
	src, err := ParseSource("model")
	if err != nil || src != (Source{}) || src.String() != "model" {
		t.Fatalf("ParseSource(model) = %+v, %v", src, err)
	}
	for _, mode := range []string{ModeExact, ModeModel, ModeAuto} {
		if got := src.Resolve(mode); got != src {
			t.Errorf("model resolves to %v in mode %q", got, mode)
		}
	}
	if src.ErrorBound() != 0 {
		t.Errorf("model carries error bound %v", src.ErrorBound())
	}
	for _, bad := range []string{"", "Model", "psychic", "an", "sim-ear", "mrc:", "mrc~:gcc"} {
		if _, err := ParseSource(bad); err == nil {
			t.Errorf("ParseSource(%q) accepted", bad)
		}
	}
}

// TestModeModelMatchesAnalytic proves the mode knob is pure routing:
// a mode=model sweep over sim:ear is design-for-design identical to
// an explicit an:ear sweep, and every point records the analytic
// source it was actually priced with.
func TestModeModelMatchesAnalytic(t *testing.T) {
	base := Config{
		CacheKB: []int{4, 16, 64}, LineBytes: []int{16, 64}, BusBits: []int{32},
		LatencyNS: 360, TransferNS: 60, CPUNS: 30, SimRefs: 50_000,
	}
	viaMode := base
	viaMode.HitSource, viaMode.Mode = "sim:ear", ModeModel
	explicit := base
	explicit.HitSource = "an:ear"
	a, err := Run(context.Background(), viaMode, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(context.Background(), explicit, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) {
		t.Fatalf("design counts differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			t.Errorf("design %d differs: %+v vs %+v", i, a[i], b[i])
		}
		if a[i].HitSource != "an:ear" {
			t.Errorf("design %d records hit_source %q, want \"an:ear\"", i, a[i].HitSource)
		}
	}
}

func TestCheckLimits(t *testing.T) {
	cfg, err := ParseConfig([]byte(ExampleConfig))
	if err != nil {
		t.Fatal(err)
	}
	if err := cfg.CheckLimits(DefaultLimits); err != nil {
		t.Fatalf("example config exceeds default limits: %v", err)
	}
	if err := cfg.CheckLimits(Limits{MaxPoints: 4}); err == nil {
		t.Error("30-point space passed a 4-point limit")
	}
	if err := cfg.CheckLimits(Limits{MaxCacheKB: 32}); err == nil {
		t.Error("64 KiB cache passed a 32 KiB limit")
	}
	big := cfg
	big.SimRefs = 10_000_000
	if err := big.CheckLimits(DefaultLimits); err == nil {
		t.Error("10M sim_refs passed the default limit")
	}
}

func TestCanonicalIgnoresFieldOrderAndDefaults(t *testing.T) {
	a, err := ParseConfig([]byte(`{"cache_kb":[8],"line_bytes":[32],"bus_bits":[32],"latency_ns":360,"transfer_ns":60,"cpu_ns":30}`))
	if err != nil {
		t.Fatal(err)
	}
	b, err := ParseConfig([]byte(`{"cpu_ns":30,"transfer_ns":60,"latency_ns":360,"bus_bits":[32],"line_bytes":[32],"cache_kb":[8],"assoc":2,"hit_source":"model","seed":1994}`))
	if err != nil {
		t.Fatal(err)
	}
	ca, err := a.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	cb, err := b.Canonical()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ca, cb) {
		t.Fatalf("canonical keys differ:\n%s\nvs\n%s", ca, cb)
	}
}

func TestParetoCount(t *testing.T) {
	ds := []Design{
		{Delay: 1, AreaRBE: 2, Pins: 3},
		{Delay: 2, AreaRBE: 3, Pins: 4}, // dominated by the first
		{Delay: 0.5, AreaRBE: 5, Pins: 3},
	}
	MarkPareto(ds)
	if !ds[0].Pareto || ds[1].Pareto || !ds[2].Pareto {
		t.Fatalf("pareto flags = %v %v %v", ds[0].Pareto, ds[1].Pareto, ds[2].Pareto)
	}
	if n := ParetoCount(ds); n != 2 {
		t.Fatalf("ParetoCount = %d, want 2", n)
	}
}
