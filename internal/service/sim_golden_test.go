package service

import (
	"os"
	"path/filepath"
	"testing"
)

// The simulated-source goldens pin the hit ratios every trace-driven
// sweep tier reports — flat "sim:" replay (direct-mapped and 2-way, on
// the write-heaviest workload too), exact and SHARDS-sampled "mrc:"
// curves over several line sizes, and a "sim:" hierarchy replay. They
// were captured before the tiers were routed through one shared trace
// cache, so any drift in how a trace is materialized or replayed
// shows up as a byte difference here. Regenerate (only when an output
// change is intentional) with
//
//	go test ./internal/service -run TestSimSourceGoldens -update-golden
var simGoldenConfigs = []struct{ name, body string }{
	{"sim_dm", `{
  "cache_kb": [4, 8, 16], "line_bytes": [16, 32], "bus_bits": [32, 64],
  "assoc": 1, "latency_ns": 360, "transfer_ns": 60, "cpu_ns": 30,
  "hit_source": "sim:ear", "sim_refs": 20000, "seed": 7
}`},
	{"sim_2way", `{
  "cache_kb": [2, 8, 32], "line_bytes": [32, 64], "bus_bits": [32],
  "assoc": 2, "latency_ns": 360, "transfer_ns": 60, "cpu_ns": 30,
  "hit_source": "sim:nasa7", "sim_refs": 20000
}`},
	{"mrc_exact", `{
  "cache_kb": [1, 4, 16, 64], "line_bytes": [16, 32, 64], "bus_bits": [32],
  "assoc": 2, "latency_ns": 360, "transfer_ns": 60, "cpu_ns": 30,
  "hit_source": "mrc:swm256", "sim_refs": 20000
}`},
	{"mrc_sampled", `{
  "cache_kb": [4, 16, 64], "line_bytes": [32, 64], "bus_bits": [32],
  "assoc": 4, "latency_ns": 360, "transfer_ns": 60, "cpu_ns": 30,
  "hit_source": "mrc~:zipf", "sim_refs": 20000, "mrc_rate": 0.2, "mrc_budget": 2048
}`},
	{"sim_hier", `{
  "cache_kb": [4, 8], "line_bytes": [16, 32], "bus_bits": [32],
  "assoc": 2, "latency_ns": 360, "transfer_ns": 60, "cpu_ns": 30,
  "hit_source": "sim:hydro2d", "sim_refs": 20000,
  "levels": [{"cache_kb": [32, 64], "line_bytes": [32, 64], "latency_ns": 90}]
}`},
}

func TestSimSourceGoldens(t *testing.T) {
	_, ts := newTestServer(t)
	for _, c := range simGoldenConfigs {
		for _, format := range []string{"json", "csv"} {
			name := c.name + "_golden." + format
			t.Run(name, func(t *testing.T) {
				url := ts.URL + "/v1/sweep"
				if format == "csv" {
					url += "?format=csv"
				}
				resp, body := post(t, url, c.body)
				if resp.StatusCode != 200 {
					t.Fatalf("status %d: %s", resp.StatusCode, body)
				}
				path := filepath.Join("testdata", name)
				if *updateGolden {
					if err := os.WriteFile(path, body, 0o644); err != nil {
						t.Fatal(err)
					}
				}
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatalf("reading golden (re-run with -update-golden?): %v", err)
				}
				if string(body) != string(want) {
					t.Fatalf("%s: response differs from the golden bytes\ngot:\n%s\nwant:\n%s", name, body, want)
				}
			})
		}
	}
}
