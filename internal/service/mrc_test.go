package service

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"

	"tradeoff/internal/mrc"
)

// mrcSweepBody is a small MRC-backed sweep request; sim_refs stays low
// so the test profiles quickly.
const mrcSweepBody = `{
  "cache_kb":    [4, 8, 16, 32],
  "line_bytes":  [32, 64],
  "bus_bits":    [32],
  "latency_ns":  360,
  "transfer_ns": 60,
  "cpu_ns":      30,
  "sim_refs":    10000,
  "hit_source":  "mrc:ear"
}`

// TestSweepMRCSource drives the "mrc:" hit source through POST
// /v1/sweep: first request computes, second replays from the response
// memo, and the server-lifetime curve cache holds one curve per line
// size.
func TestSweepMRCSource(t *testing.T) {
	s, ts := newTestServer(t)
	resp, body := post(t, ts.URL+"/v1/sweep", mrcSweepBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var sr SweepResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("unmarshal: %v\n%s", err, body)
	}
	if sr.Count != 8 {
		t.Fatalf("count %d, want 8", sr.Count)
	}
	for _, d := range sr.Designs {
		if d.HitRatio <= 0 || d.HitRatio >= 1 {
			t.Fatalf("design %+v hit ratio outside (0, 1)", d)
		}
	}
	curvesHeld(t, s, "ear", 10000, 32, 64)
	resp2, _ := post(t, ts.URL+"/v1/sweep", mrcSweepBody)
	if resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("second request X-Cache = %q, want hit", resp2.Header.Get("X-Cache"))
	}
}

// curvesHeld asserts the server's curve cache already holds the exact
// curve of workload (default seed, refs references) at each line size.
func curvesHeld(t *testing.T, s *Server, workload string, refs int, lines ...int) {
	t.Helper()
	for _, line := range lines {
		spec := mrc.Spec{Workload: workload, Seed: 1994, Refs: refs, LineSize: line}
		if _, shared, err := s.curves.Get(context.Background(), spec); err != nil || !shared {
			t.Fatalf("%s %d B curve: shared=%v err=%v, want it held by the curve cache", workload, line, shared, err)
		}
	}
}

// TestSweepSampledMRCSource covers the "mrc~:" source and its sampler
// knobs over the wire, including a domain rejection.
func TestSweepSampledMRCSource(t *testing.T) {
	_, ts := newTestServer(t)
	body := `{
	  "cache_kb": [8, 32], "line_bytes": [64], "bus_bits": [32],
	  "latency_ns": 360, "transfer_ns": 60, "cpu_ns": 30,
	  "sim_refs": 10000, "hit_source": "mrc~:doduc",
	  "mrc_rate": 0.25, "mrc_budget": 4096
	}`
	resp, data := post(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, data)
	}
	bad := `{
	  "cache_kb": [8], "line_bytes": [64], "bus_bits": [32],
	  "latency_ns": 360, "transfer_ns": 60, "cpu_ns": 30,
	  "hit_source": "mrc~:doduc", "mrc_rate": 7
	}`
	resp, data = post(t, ts.URL+"/v1/sweep", bad)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-domain mrc_rate: status %d, want 400: %s", resp.StatusCode, data)
	}
}
