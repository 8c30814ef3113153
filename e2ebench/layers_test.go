package main

import (
	"encoding/json"
	"math"
	"testing"
)

// TestNest pins the parent rule and self time: Map items on a worker
// lane belong to the innermost enclosing benchmark span, spans nest on
// their own lane otherwise, and a parent's covered time is the union
// of its children's intervals.
func TestNest(t *testing.T) {
	spans := []span{
		{Name: "service.request", TS: 0, Dur: 100},
		{Name: "sweep.run", TS: 10, Dur: 80},
		{Name: "sweep_point", TS: 15, Dur: 40, TID: 0},
		{Name: "sweep_point", TS: 20, Dur: 10, TID: 1}, // inside the lane-0 item in time only
		{Name: "memo", TS: 22, Dur: 5, TID: 1},
		{Name: "sweep_point", TS: 60, Dur: 20, TID: 1},
	}
	nest(spans)
	parent := func(i int) string {
		if spans[i].parent < 0 {
			return ""
		}
		return spans[spans[i].parent].Name
	}
	want := []string{"", "service.request", "sweep.run", "sweep.run", "sweep_point", "sweep.run"}
	for i := range spans {
		if got := parent(i); got != want[i] {
			t.Errorf("span %d (%s tid %d): parent %q, want %q", i, spans[i].Name, spans[i].TID, got, want[i])
		}
	}
	// sweep.run's children cover [15,55) ∪ [20,30) ∪ [60,80) = 60µs.
	if got := spans[1].covered; math.Abs(got-60) > 1e-9 {
		t.Errorf("sweep.run covered %g µs, want 60", got)
	}
	if got := spans[0].Dur - spans[0].covered; math.Abs(got-20) > 1e-9 {
		t.Errorf("request self time %g µs, want 20", got)
	}
}

// TestTracedRun drives a short traced in-process run on two clients
// and folds every kept trace into the layer statistics.
func TestTracedRun(t *testing.T) {
	w, err := NewWorkload("revisit", 9)
	if err != nil {
		t.Fatal(err)
	}
	run, _, err := inProcess(w, 0.3, true)
	if err != nil {
		t.Fatal(err)
	}
	if run.n == 0 || run.failed != 0 || len(run.kept) == 0 {
		t.Fatalf("%d requests, %d failed, %d kept", run.n, run.failed, len(run.kept))
	}
	ls := newLayerStats()
	for _, k := range run.kept {
		var spans []span
		if err := json.Unmarshal(k.tracer.JSON(), &spans); err != nil {
			t.Fatal(err)
		}
		if err := ls.add(k.req, spans); err != nil {
			t.Fatal(err)
		}
	}
	for _, m := range ls.perLayer() {
		if m.Name == "engine.memo_hit_share" && m.Value < 0.5 {
			t.Errorf("revisit memo hit share %g, want most requests to hit", m.Value)
		}
	}
}
