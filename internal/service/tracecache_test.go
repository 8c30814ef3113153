package service

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"

	"tradeoff/internal/trace"
)

// sweepOK posts a /v1/sweep config and fails the test on a non-200.
func sweepOK(t *testing.T, url, cfg string) {
	t.Helper()
	resp, body := post(t, url+"/v1/sweep", cfg)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
}

// TestSimSweepMaterializesOneTrace: a flat "sim:" sweep replays one
// trace at every design point, so P points cost one materialization,
// and a second sweep over other geometries of the same trace costs
// none.
func TestSimSweepMaterializesOneTrace(t *testing.T) {
	s, ts := newTestServer(t)
	sweepOK(t, ts.URL, `{"cache_kb":[2,4,8,16],"line_bytes":[16,32,64],"bus_bits":[32],
		"latency_ns":360,"transfer_ns":60,"cpu_ns":30,"hit_source":"sim:doduc","sim_refs":20000}`)
	if n := s.runner.Traces().Generated(); n != 1 {
		t.Fatalf("a 12-point sim: sweep materialized %d traces, want 1", n)
	}
	sweepOK(t, ts.URL, `{"cache_kb":[32],"line_bytes":[32],"bus_bits":[32],"assoc":1,
		"latency_ns":360,"transfer_ns":60,"cpu_ns":30,"hit_source":"sim:doduc","sim_refs":20000}`)
	if n := s.runner.Traces().Generated(); n != 1 {
		t.Fatalf("a second sweep of the same trace materialized it again: %d traces", n)
	}
}

// TestMRCSweepMaterializesOneTrace: an "mrc:" sweep pays one curve pass
// per line size, but every pass reads the same trace; the sampled tier
// and a "sim:" sweep of the same workload share it too.
func TestMRCSweepMaterializesOneTrace(t *testing.T) {
	s, ts := newTestServer(t)
	sweepOK(t, ts.URL, `{"cache_kb":[4,16],"line_bytes":[16,32,64,128],"bus_bits":[32],
		"latency_ns":360,"transfer_ns":60,"cpu_ns":30,"hit_source":"mrc:wave5","sim_refs":20000}`)
	if n := s.runner.Traces().Generated(); n != 1 {
		t.Fatalf("an mrc: sweep over 4 line sizes materialized %d traces, want 1", n)
	}
	curvesHeld(t, s, "wave5", 20000, 16, 32, 64, 128)
	sweepOK(t, ts.URL, `{"cache_kb":[4,16],"line_bytes":[32,64],"bus_bits":[32],
		"latency_ns":360,"transfer_ns":60,"cpu_ns":30,"hit_source":"mrc~:wave5","sim_refs":20000}`)
	sweepOK(t, ts.URL, `{"cache_kb":[4],"line_bytes":[32],"bus_bits":[32],
		"latency_ns":360,"transfer_ns":60,"cpu_ns":30,"hit_source":"sim:wave5","sim_refs":20000}`)
	if n := s.runner.Traces().Generated(); n != 1 {
		t.Fatalf("mrc~: and sim: sweeps of the same trace materialized %d traces in all, want 1", n)
	}
}

// TestOverBudgetTraceOncePerRequest: a trace larger than the whole
// trace-cache budget is never cached, yet a sweep still materializes
// it once, not once per design point — the run holds what it fetched.
// One worker runs the points one after another, so no point can join
// another's in-flight generation instead.
func TestOverBudgetTraceOncePerRequest(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes a 67 MB trace")
	}
	s := New(Options{Workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	refs := int(trace.CacheBytes/24) + 1000
	for i, kb := range []int{1, 2} {
		sweepOK(t, ts.URL, fmt.Sprintf(`{"cache_kb":[%d],"line_bytes":[32,64],"bus_bits":[32],"assoc":1,
			"latency_ns":360,"transfer_ns":60,"cpu_ns":30,"hit_source":"sim:zipf","sim_refs":%d}`, kb, refs))
		// The second sweep materializes again: the first did not cache
		// the over-budget trace.
		if n := s.runner.Traces().Generated(); n != int64(i+1) {
			t.Fatalf("after %d two-point sweeps of an over-budget trace: %d materializations, want %d", i+1, n, i+1)
		}
	}
}

// TestTraceCacheStaysWithinBudget fills the shared cache past its
// budget from every tier — stall grids, sim: and mrc: sweeps — and
// checks that only the two newest traces stay resident: a third would
// exceed the budget.
func TestTraceCacheStaysWithinBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("materializes 96 MB of traces")
	}
	s, ts := newTestServer(t)
	const refs = 1_000_000 // 24 MB each: the fourth request must evict
	reqs := []struct{ path, body string }{
		{"/v1/stall", fmt.Sprintf(`{"programs":["ear"],"refs":%d,"features":["FS"],"seed":11}`, refs)},
		{"/v1/sweep", fmt.Sprintf(`{"cache_kb":[4],"line_bytes":[32],"bus_bits":[32],
			"latency_ns":360,"transfer_ns":60,"cpu_ns":30,"hit_source":"sim:ear","sim_refs":%d,"seed":12}`, refs)},
		{"/v1/sweep", fmt.Sprintf(`{"cache_kb":[4],"line_bytes":[32],"bus_bits":[32],
			"latency_ns":360,"transfer_ns":60,"cpu_ns":30,"hit_source":"mrc:ear","sim_refs":%d,"seed":13}`, refs)},
		{"/v1/stall", fmt.Sprintf(`{"programs":["ear"],"refs":%d,"features":["FS"],"seed":14}`, refs)},
	}
	for i, r := range reqs {
		resp, body := post(t, ts.URL+r.path, r.body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, resp.StatusCode, body)
		}
	}
	if n := s.runner.Traces().Generated(); n != 4 {
		t.Fatalf("materialized %d traces, want 4", n)
	}
	if 3*refs*24 <= trace.CacheBytes {
		t.Fatalf("three %d-ref traces fit the %d-byte budget; the test needs them not to", refs, trace.CacheBytes)
	}
	for _, c := range []struct {
		seed      uint64
		generated int64
	}{
		{13, 4}, {14, 4}, // the two newest stay resident
		{11, 5}, // the oldest was evicted
	} {
		if _, err := s.runner.Traces().Get(context.Background(), trace.Named{Program: "ear", Seed: c.seed, Refs: refs}); err != nil {
			t.Fatal(err)
		}
		if n := s.runner.Traces().Generated(); n != c.generated {
			t.Fatalf("fetching seed %d: %d materializations, want %d", c.seed, n, c.generated)
		}
	}
}
