// Command benchjson measures the repo's headline benchmarks with
// testing.Benchmark and writes them as a stable JSON document, so a
// checked-in baseline (BENCH_sweep.json at the repo root) can ride
// along with the code and CI can diff against it without parsing
// `go test -bench` text output.
//
// Usage:
//
//	benchjson -o BENCH_sweep.json        # record a baseline
//	benchjson -compare BENCH_sweep.json  # re-measure and diff
//
// The schema is versioned ("tradeoff-bench/v1") and additive: one
// entry per benchmark with iterations, ns/op, bytes/op and allocs/op.
// -compare exits non-zero when any benchmark regresses by more than
// -threshold (default 1.25×) over the baseline's ns/op; CI runs the
// comparison non-blocking (continue-on-error), like bench-smoke, so a
// slow runner flags but cannot block a merge.
//
// `make bench-record` regenerates the baseline.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"tradeoff/internal/mrc"
	"tradeoff/internal/obs"
	"tradeoff/internal/simjob"
	"tradeoff/internal/sweep"
	"tradeoff/internal/trace"
)

// Schema is the document's version tag; bump only on breaking shape
// changes, never for added benchmarks.
const Schema = "tradeoff-bench/v1"

// Document is the file benchjson writes and compares.
type Document struct {
	Schema     string   `json:"schema"`
	Benchmarks []Result `json:"benchmarks"`
}

// Result is one benchmark measurement.
type Result struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

// sweep64 is the 64-point grid bench_test.go's sweep benchmarks use:
// 8 cache sizes × 4 line sizes × 2 bus widths, where re-simulation
// pays 64 replays and the MRC sources pay 4 passes, each over one
// trace generated once per sweep.
func sweep64(source string) sweep.Config {
	return sweep.Config{
		CacheKB:   []int{1, 2, 4, 8, 16, 32, 64, 128},
		LineBytes: []int{16, 32, 64, 128},
		BusBits:   []int{32, 64},
		LatencyNS: 360, TransferNS: 60, CPUNS: 30,
		SimRefs: 20_000, HitSource: source,
	}
}

func benchSweep(source string) func(b *testing.B) {
	cfg := sweep64(source)
	return func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			ds, err := sweep.Run(context.Background(), cfg, 0)
			if err != nil {
				b.Fatal(err)
			}
			if len(ds) != 64 {
				b.Fatalf("designs = %d, want 64", len(ds))
			}
		}
	}
}

// benchmarks is the recorded suite, in file order. Names are part of
// the baseline document, so renaming one orphans its baseline entry.
var benchmarks = []struct {
	name string
	fn   func(b *testing.B)
}{
	{"sweep_sim_64pt", benchSweep("sim:ear")},
	{"sweep_mrc_64pt", benchSweep("mrc:ear")},
	{"sweep_mrc_sampled_64pt", benchSweep("mrc~:ear")},
	{"sweep_model_64pt", benchSweep("an:ear")},
	{"optimize_mrc_40pt", func(b *testing.B) {
		// The cost-constrained hierarchy search: 40 design points
		// across three depths (flat, two-level, three-level) on the
		// exact-MRC surface, budget-filtered and Pareto-marked.
		cfg := sweep.OptimizeConfig{
			Config: sweep.Config{
				CacheKB: []int{4, 8}, LineBytes: []int{16, 32}, BusBits: []int{32, 64},
				LatencyNS: 360, TransferNS: 60, CPUNS: 30,
				SimRefs: 20_000, HitSource: "mrc:ear",
				Levels: []sweep.LevelAxes{
					{CacheKB: []int{32, 64}, LatencyNS: 90},
					{CacheKB: []int{256}, LatencyNS: 180},
				},
			},
			AreaBudget: 2e7,
		}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := sweep.Optimize(context.Background(), cfg, 0)
			if err != nil {
				b.Fatal(err)
			}
			if res.Total != 40 {
				b.Fatalf("total = %d, want 40", res.Total)
			}
		}
	}},
	{"mrc_pass_20k", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			c, err := mrc.ProfileSource(trace.MustWorkload("ear", 1), 20_000, 64)
			if err != nil {
				b.Fatal(err)
			}
			if c.Refs != 20_000 {
				b.Fatalf("refs = %d, want 20000", c.Refs)
			}
		}
	}},
	{"stall_grid", func(b *testing.B) {
		g := simjob.Grid{Refs: 20_000, Features: []string{"BL", "BNL3"}, BetaM: []int64{2, 8}}
		r := simjob.NewRunner()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := r.RunGrid(context.Background(), g, 0); err != nil {
				b.Fatal(err)
			}
		}
	}},
	{"span_ring_record", func(b *testing.B) {
		// The flight recorder's per-span cost — the overhead every
		// completed span pays on the request path.
		r := obs.NewBoundedTracer(8192, nil)
		rec := obs.SpanRecord{Name: "bench", Start: time.Now(), Dur: time.Millisecond, TID: 1}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Record(rec)
		}
	}},
	{"snapshot_tick", func(b *testing.B) {
		// One metrics-history snapshot cycle at production scale: the
		// runtime collector plus ~20 histogram-derived series.
		h := obs.NewHistory(10*time.Second, time.Hour)
		obs.RegisterRuntimeSeries(h)
		for i := 0; i < 20; i++ {
			hist := obs.NewHistogram(fmt.Sprintf("bench_hist_%d", i))
			hist.Observe(time.Millisecond)
			h.RegisterHistogram(hist)
		}
		now := time.Now()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			now = now.Add(10 * time.Second)
			h.Tick(now)
		}
	}},
}

func main() {
	var (
		out       = flag.String("o", "", "write measurements to this JSON file")
		compare   = flag.String("compare", "", "re-measure and diff against this baseline JSON")
		threshold = flag.Float64("threshold", 1.25, "ns/op regression ratio that fails -compare")
	)
	flag.Parse()
	if (*out == "") == (*compare == "") {
		fmt.Fprintln(os.Stderr, "usage: benchjson -o out.json | -compare baseline.json")
		os.Exit(2)
	}
	if err := run(*out, *compare, *threshold); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

func run(out, compare string, threshold float64) error {
	doc := measure()
	if out != "" {
		data, err := json.MarshalIndent(doc, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			return err
		}
		fmt.Printf("benchjson: wrote %d benchmarks to %s\n", len(doc.Benchmarks), out)
		return nil
	}
	base, err := readBaseline(compare)
	if err != nil {
		return err
	}
	return diff(os.Stdout, base, doc, threshold)
}

func measure() Document {
	doc := Document{Schema: Schema}
	for _, bm := range benchmarks {
		r := testing.Benchmark(bm.fn)
		doc.Benchmarks = append(doc.Benchmarks, Result{
			Name:        bm.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			BytesPerOp:  r.AllocedBytesPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
		})
		fmt.Fprintf(os.Stderr, "benchjson: %-24s %d iterations, %.0f ns/op\n",
			bm.name, r.N, float64(r.T.Nanoseconds())/float64(r.N))
	}
	return doc
}

func readBaseline(path string) (Document, error) {
	var doc Document
	data, err := os.ReadFile(path)
	if err != nil {
		return doc, err
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return doc, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != Schema {
		return doc, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, Schema)
	}
	return doc, nil
}

// diff prints a per-benchmark comparison and errors when any current
// measurement exceeds threshold × its baseline ns/op. Benchmarks
// present on only one side are reported but never fail the check, so
// adding a benchmark does not break an older baseline.
func diff(w io.Writer, base, cur Document, threshold float64) error {
	baseline := map[string]Result{}
	for _, r := range base.Benchmarks {
		baseline[r.Name] = r
	}
	var sb strings.Builder
	var regressed []string
	for _, r := range cur.Benchmarks {
		b, ok := baseline[r.Name]
		if !ok {
			fmt.Fprintf(&sb, "%-24s %.0f ns/op (no baseline)\n", r.Name, r.NsPerOp)
			continue
		}
		ratio := r.NsPerOp / b.NsPerOp
		mark := "ok"
		if ratio > threshold {
			mark = "REGRESSED"
			regressed = append(regressed, r.Name)
		}
		fmt.Fprintf(&sb, "%-24s %.0f ns/op vs %.0f baseline (%.2fx) %s\n",
			r.Name, r.NsPerOp, b.NsPerOp, ratio, mark)
		delete(baseline, r.Name)
	}
	removed := make([]string, 0, len(baseline))
	for name := range baseline {
		removed = append(removed, name)
	}
	sort.Strings(removed)
	for _, name := range removed {
		fmt.Fprintf(&sb, "%-24s only in baseline (benchmark removed?)\n", name)
	}
	if _, err := io.WriteString(w, sb.String()); err != nil {
		return err
	}
	if len(regressed) > 0 {
		return fmt.Errorf("%d benchmark(s) regressed more than %.2fx: %v", len(regressed), threshold, regressed)
	}
	return nil
}
