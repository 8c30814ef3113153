package main

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"
)

// streamBytes renders the warm-up and the first n requests of a stream.
func streamBytes(t *testing.T, name string, seed uint64, n int) []byte {
	t.Helper()
	w, err := NewWorkload(name, seed)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, req := range w.Warmup {
		buf.WriteString(req.key() + "\n")
	}
	for i := 0; i < n; i++ {
		buf.WriteString(w.At(i).key() + "\n")
	}
	return buf.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, name := range workloadNames {
		a, b := streamBytes(t, name, 7, 500), streamBytes(t, name, 7, 500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: two streams from seed 7 differ", name)
		}
	}
}

func TestOtherSeedOtherStream(t *testing.T) {
	for _, name := range workloadNames {
		if bytes.Equal(streamBytes(t, name, 7, 500), streamBytes(t, name, 8, 500)) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", name)
		}
	}
}

// traceSeeds returns the trace seed of every request in reqs.
func traceSeeds(t *testing.T, reqs []Request) []uint64 {
	t.Helper()
	out := make([]uint64, len(reqs))
	for i, req := range reqs {
		var b struct {
			Seed uint64 `json:"seed"`
		}
		if err := json.Unmarshal(req.Body, &b); err != nil {
			t.Fatal(err)
		}
		if b.Seed == 0 {
			t.Fatalf("simulate request %d uses the default trace seed", i)
		}
		out[i] = b.Seed
	}
	return out
}

// TestSimulateFreshTraces pins that every simulate request carries its
// own trace seed, derived from the workload seed: a held-out workload
// seed never replays a trace another seed (or warm-up) materialized.
func TestSimulateFreshTraces(t *testing.T) {
	seen := map[uint64]string{}
	for _, seed := range []uint64{1, 2, 3} {
		w, err := NewWorkload("simulate", seed)
		if err != nil {
			t.Fatal(err)
		}
		reqs := append([]Request{}, w.Warmup...)
		for i := 0; i < 3000; i++ {
			reqs = append(reqs, w.At(i))
		}
		for i, ts := range traceSeeds(t, reqs) {
			if prev, ok := seen[ts]; ok {
				t.Fatalf("seed %d request %d reuses trace seed %d from %s", seed, i, ts, prev)
			}
			seen[ts] = reqs[i].Kind
		}
	}
}

// TestExploreMissesMemo pins that explore never repeats a request, so
// every one misses the response memo, and that its curves are the
// ones warm-up profiled.
func TestExploreMissesMemo(t *testing.T) {
	w, err := NewWorkload("explore", 5)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, req := range w.Warmup {
		keys[req.key()] = true
	}
	for i := 0; i < 20000; i++ {
		req := w.At(i)
		if keys[req.key()] {
			t.Fatalf("request %d repeats an earlier key", i)
		}
		keys[req.key()] = true
		var b sweepBody
		if err := json.Unmarshal(req.Body, &b); err != nil {
			t.Fatal(err)
		}
		if b.Seed != 0 || b.SimRefs != exploreRefs {
			t.Fatalf("request %d profiles seed %d, %d refs: not a warmed curve", i, b.Seed, b.SimRefs)
		}
	}
}

// TestRevisitPool pins that revisit draws only from a pool smaller
// than the server's 256-entry response memo.
func TestRevisitPool(t *testing.T) {
	w, err := NewWorkload("revisit", 5)
	if err != nil {
		t.Fatal(err)
	}
	pool := map[string]bool{}
	for _, req := range w.Warmup {
		pool[req.key()] = true
	}
	if len(pool) != len(w.Warmup) || len(pool) >= 256 {
		t.Fatalf("pool of %d distinct of %d requests, want < 256 distinct", len(pool), len(w.Warmup))
	}
	for i := 0; i < 20000; i++ {
		if !pool[w.At(i).key()] {
			t.Fatalf("request %d is not in the pool", i)
		}
	}
}

// TestRevisitShapeFixed pins that a seed changes the values revisit
// asks for, not the work: each popularity rank has the same endpoint,
// format, kind and design-point count under every seed.
func TestRevisitShapeFixed(t *testing.T) {
	shape := func(seed uint64) []Request {
		w, err := NewWorkload("revisit", seed)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Request, len(w.Warmup))
		for k, req := range w.Warmup {
			out[k] = Request{Path: req.Path, CSV: req.CSV, Points: req.Points, Analytic: req.Analytic, Kind: req.Kind}
		}
		return out
	}
	a := shape(1)
	for _, seed := range []uint64{2, 12345, 987654321} {
		b := shape(seed)
		for k := range a {
			if a[k].Kind != b[k].Kind || a[k].Path != b[k].Path || a[k].CSV != b[k].CSV || a[k].Points != b[k].Points || a[k].Analytic != b[k].Analytic {
				t.Fatalf("rank %d: seed 1 gives %+v, seed %d gives %+v", k, a[k], seed, b[k])
			}
		}
	}
}

// TestRequestsValid answers the warm-up and the first requests of
// every workload in-process: each must succeed and satisfy the output
// invariants the benchmark checks.
func TestRequestsValid(t *testing.T) {
	for _, name := range workloadNames {
		w, err := NewWorkload(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		reqs := append([]Request{}, w.Warmup...)
		for i := 0; i < 24; i++ {
			reqs = append(reqs, w.At(i))
		}
		p := newPipeline()
		for _, req := range reqs {
			body, err := p.serve(context.Background(), req)
			if err == nil {
				err = checkInvariants(req, body)
			}
			if err != nil {
				t.Errorf("%s %s %s: %v", name, req.URL(), req.Body, err)
			}
		}
	}
}
