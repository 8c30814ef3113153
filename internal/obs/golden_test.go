package obs

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite the trace golden files")

// checkGolden compares body with testdata/name, rewriting the file
// first under -update-golden.
func checkGolden(t *testing.T, name string, body []byte) {
	t.Helper()
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
	if !bytes.Equal(body, want) {
		t.Fatalf("%s differs from golden\ngot:\n%s\nwant:\n%s", name, body, want)
	}
}

// TestTraceJSONGolden pins the complete-event ("X") export byte for
// byte: a fixed clock with a sub-microsecond step exercises the float
// timestamps, and the span tree covers nesting, lane inheritance,
// SetTID lanes, args of several types and a double End.
func TestTraceJSONGolden(t *testing.T) {
	tr := NewTracer()
	tr.now = fixedClock(tr.epoch, 1234567*time.Nanosecond)

	ctx := WithTracer(context.Background(), tr)
	ctx, req := StartSpan(ctx, "request")
	req.SetArg("path", "/v1/sweep")
	req.SetArg("request_id", "0123456789abcdef")
	_, decode := StartSpan(ctx, "decode")
	decode.End()
	for slot := 1; slot <= 2; slot++ {
		pctx, point := StartSpan(ctx, "sweep_point")
		point.SetTID(slot)
		point.SetArg("slot", slot)
		_, memo := StartSpan(pctx, "memo")
		memo.SetArg("hit", slot == 1)
		memo.SetArg("queue_wait_us", 12.5)
		memo.End()
		point.End()
	}
	req.SetArg("status", 200)
	req.End()
	req.End() // double End records once

	var buf bytes.Buffer
	if err := tr.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "trace_golden.json", buf.Bytes())
}

// TestFlightGolden pins the B/E flight-dump export byte for byte for a
// fixed record set (Snapshot order: start ascending, ties longer
// first). Two overlapping requests that both recorded on lane 0 force
// lane re-assignment; a span ending exactly where the next begins, a
// span on an original lane other than 0 and span args are covered too.
func TestFlightGolden(t *testing.T) {
	withArgs := func(r SpanRecord, args map[string]any) SpanRecord {
		r.Args = args
		return r
	}
	recs := []SpanRecord{
		withArgs(rec("request", 0, 100, 0), map[string]any{"path": "/v1/sweep", "status": 200}),
		rec("decode", 10, 20, 0),
		withArgs(rec("request", 50, 100, 0), map[string]any{"path": "/v1/stall"}),
		withArgs(rec("sim_job", 60, 30, 3), map[string]any{"queue_wait_us": 4.25}),
		rec("encode", 90, 5, 0),
		rec("tail_1", 200, 50, 0),
		rec("tail_2", 250, 50, 0),
	}
	var buf bytes.Buffer
	if err := WriteFlight(&buf, recs, t0); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "flight_golden.json", buf.Bytes())
}
