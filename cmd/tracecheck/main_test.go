package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"tradeoff/internal/obs"
)

func write(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "t.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestCheckAcceptsValidTrace(t *testing.T) {
	p := write(t, `[
{"name":"sweep_point","ph":"X","ts":0,"dur":12,"pid":1,"tid":0},
{"name":"sweep_point","ph":"X","ts":5.5,"dur":3,"pid":1,"tid":1}
]`)
	n, err := check(p, 2)
	if err != nil || n != 2 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestCheckRejectsBadTraces(t *testing.T) {
	cases := map[string]string{
		"not json":     `{`,
		"not an array": `{"name":"x"}`,
		"no name":      `[{"ph":"X","ts":0,"dur":1,"pid":1,"tid":0}]`,
		"bad phase":    `[{"name":"a","ph":"B","ts":0,"dur":1,"pid":1,"tid":0}]`,
		"no ts":        `[{"name":"a","ph":"X","dur":1,"pid":1,"tid":0}]`,
		"negative dur": `[{"name":"a","ph":"X","ts":0,"dur":-1,"pid":1,"tid":0}]`,
		"no lanes":     `[{"name":"a","ph":"X","ts":0,"dur":1}]`,
	}
	for label, body := range cases {
		if _, err := check(write(t, body), 0); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
	if _, err := check(write(t, `[]`), 1); err == nil {
		t.Error("empty trace passed -min 1")
	}
	if _, err := check(filepath.Join(t.TempDir(), "missing.json"), 0); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCheckAcceptsValidFlightDump(t *testing.T) {
	// Two lanes; lane 0 has a nested child and a queue_wait_us arg.
	p := write(t, `[
{"name":"request","ph":"B","ts":0,"pid":1,"tid":0,"args":{"lane":0}},
{"name":"eval","ph":"B","ts":2,"pid":1,"tid":0,"args":{"queue_wait_us":1.5}},
{"name":"request","ph":"B","ts":3,"pid":1,"tid":1},
{"name":"eval","ph":"E","ts":8,"pid":1,"tid":0},
{"name":"request","ph":"E","ts":9,"pid":1,"tid":0},
{"name":"request","ph":"E","ts":12,"pid":1,"tid":1}
]`)
	n, err := check(p, 3)
	if err != nil || n != 3 {
		t.Fatalf("n=%d err=%v", n, err)
	}
}

func TestCheckRejectsBadFlightDumps(t *testing.T) {
	cases := map[string]string{
		"unbalanced B": `[{"name":"a","ph":"B","ts":0,"pid":1,"tid":0}]`,
		"E without B":  `[{"name":"a","ph":"E","ts":0,"pid":1,"tid":0}]`,
		"mismatched nesting": `[
{"name":"a","ph":"B","ts":0,"pid":1,"tid":0},
{"name":"b","ph":"B","ts":1,"pid":1,"tid":0},
{"name":"a","ph":"E","ts":2,"pid":1,"tid":0},
{"name":"b","ph":"E","ts":3,"pid":1,"tid":0}
]`,
		"time goes backward in lane": `[
{"name":"a","ph":"B","ts":5,"pid":1,"tid":0},
{"name":"a","ph":"E","ts":3,"pid":1,"tid":0}
]`,
		"negative queue_wait_us": `[
{"name":"a","ph":"B","ts":0,"pid":1,"tid":0,"args":{"queue_wait_us":-2}},
{"name":"a","ph":"E","ts":1,"pid":1,"tid":0}
]`,
		"mixed dialects": `[
{"name":"a","ph":"B","ts":0,"pid":1,"tid":0},
{"name":"x","ph":"X","ts":0,"dur":1,"pid":1,"tid":0},
{"name":"a","ph":"E","ts":1,"pid":1,"tid":0}
]`,
		"no lanes in flight": `[{"name":"a","ph":"B","ts":0}]`,
	}
	for label, body := range cases {
		if _, err := check(write(t, body), 0); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
	// Monotonicity is per lane: interleaved lanes may cross in ts.
	p := write(t, `[
{"name":"a","ph":"B","ts":5,"pid":1,"tid":0},
{"name":"b","ph":"B","ts":2,"pid":1,"tid":1},
{"name":"a","ph":"E","ts":7,"pid":1,"tid":0},
{"name":"b","ph":"E","ts":9,"pid":1,"tid":1}
]`)
	if _, err := check(p, 2); err != nil {
		t.Fatalf("cross-lane ts ordering rejected: %v", err)
	}
}

// TestCheckAcceptsBothTracerExports feeds one obs.Tracer span set
// through both of its exports — complete "X" events (WriteJSON) and a
// B/E flight dump (Snapshot + WriteFlight) — and validates each, so
// both formats of the one span sink are pinned without a live server.
func TestCheckAcceptsBothTracerExports(t *testing.T) {
	tr := obs.NewTracer()
	ctx, req := obs.StartSpan(obs.WithTracer(context.Background(), tr), "request")
	req.SetArg("request_id", "0123456789abcdef")
	for slot := 1; slot <= 3; slot++ {
		pctx, point := obs.StartSpan(ctx, "sweep_point")
		point.SetTID(slot)
		_, memo := obs.StartSpan(pctx, "memo")
		memo.SetArg("queue_wait_us", 0.5)
		memo.End()
		point.End()
	}
	req.End()
	const spans = 7

	var complete, flight bytes.Buffer
	if err := tr.WriteJSON(&complete); err != nil {
		t.Fatal(err)
	}
	if err := obs.WriteFlight(&flight, tr.Snapshot(time.Time{}), tr.Epoch()); err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string]string{"WriteJSON": complete.String(), "WriteFlight": flight.String()} {
		n, err := check(write(t, body), spans)
		if err != nil || n != spans {
			t.Errorf("%s export: n=%d err=%v, want %d spans\n%s", name, n, err, spans, body)
		}
	}
}
