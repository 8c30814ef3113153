package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"tradeoff/internal/obs"
	"tradeoff/internal/trace"
)

// spanCount runs fn under a fresh tracer and counts its spans named
// name.
func spanCount(t *testing.T, name string, fn func(ctx context.Context) error) int {
	t.Helper()
	tracer := obs.NewTracer()
	if err := fn(obs.WithTracer(context.Background(), tracer)); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tracer.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var events []struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ev := range events {
		if ev.Name == name {
			n++
		}
	}
	return n
}

// TestUnwiredSweepMaterializesOnce: with no caches wired at all (the
// CLI path) every trace-driven source still generates its trace once
// per run — flat and hierarchy "sim:" replays and "mrc:" passes alike
// — because the run holds what it fetched.
func TestUnwiredSweepMaterializesOnce(t *testing.T) {
	hier := hierCfg("sim:ear")
	hier.SimRefs = 5000
	for _, c := range []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"sim", func(ctx context.Context) error {
			_, err := Run(ctx, mrcGrid("sim:ear"), 4)
			return err
		}},
		{"mrc", func(ctx context.Context) error {
			_, err := Run(ctx, mrcGrid("mrc:ear"), 4)
			return err
		}},
		{"mrc~", func(ctx context.Context) error {
			_, err := Run(ctx, mrcGrid("mrc~:ear"), 4)
			return err
		}},
		{"sim hierarchy", func(ctx context.Context) error {
			_, err := Run(ctx, hier, 4)
			return err
		}},
		{"optimize", func(ctx context.Context) error {
			_, err := Optimize(ctx, OptimizeConfig{Config: hier, AreaBudget: 1e9}, 4)
			return err
		}},
	} {
		if n := spanCount(t, "trace_materialize", c.run); n != 1 {
			t.Errorf("%s: %d trace_materialize spans, want 1", c.name, n)
		}
	}
}

// TestWiredSweepSharesTraces: a caller-owned trace cache serves every
// tier and every later sweep of the same trace.
func TestWiredSweepSharesTraces(t *testing.T) {
	tc := trace.NewCache()
	caches := Caches{Traces: tc}
	for _, src := range []string{"sim:ear", "mrc:ear", "mrc~:ear", "sim:ear"} {
		if _, err := RunCaches(context.Background(), mrcGrid(src), 4, caches); err != nil {
			t.Fatal(err)
		}
	}
	if n := tc.Generated(); n != 1 {
		t.Fatalf("four sweeps of one trace materialized it %d times, want 1", n)
	}
}
