package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// SpanRecord is one completed span as a Tracer keeps it: absolute
// wall-clock start (so dumps can be windowed with ?last=30s), duration,
// the lane the span ran on, and the span args. Records are value
// types — recording one is a struct copy under a single uncontended
// mutex, cheap enough to leave on for every request.
type SpanRecord struct {
	Name  string
	Start time.Time
	Dur   time.Duration
	TID   int
	Args  map[string]any
}

// End returns the span's completion time.
func (r SpanRecord) End() time.Time { return r.Start.Add(r.Dur) }

// Tracer is the one span sink: every completed span becomes one
// SpanRecord in its store. The store keeps either every record
// (NewTracer: -trace files and benchmarks) or only the newest n,
// overwriting the oldest (NewBoundedTracer: the service's always-on
// flight recorder and each request's span tree, which also forwards
// every record into the recorder).
//
// Records export in two formats: WriteJSON renders Chrome trace_event
// complete ("X") events relative to the tracer's creation, in
// completion order — the JSON array chrome://tracing and Perfetto
// load directly; Snapshot plus WriteFlight render balanced B/E dumps.
//
// A Tracer is safe for concurrent use; spans from engine.Map workers
// land in one shared store.
type Tracer struct {
	epoch   time.Time
	now     func() time.Time // test hook; defaults to time.Now
	keep    int              // > 0: retain only the newest keep records
	forward *Tracer          // when set, receives a copy of every record

	mu   sync.Mutex
	recs []SpanRecord // completion order, rotated by next once full
	next int          // once len(recs) == keep: the slot of the oldest record
}

// NewTracer returns an empty tracer whose clock starts now and which
// keeps every record.
func NewTracer() *Tracer {
	return &Tracer{epoch: time.Now(), now: time.Now}
}

// NewBoundedTracer returns an empty tracer whose clock starts now and
// which keeps only the newest keep records (minimum 1), forwarding
// each record to forward when it is non-nil. The store grows by
// append up to its bound, so a short-lived tracer with a generous
// bound costs only the records it holds.
func NewBoundedTracer(keep int, forward *Tracer) *Tracer {
	if keep < 1 {
		keep = 1
	}
	return &Tracer{epoch: time.Now(), now: time.Now, keep: keep, forward: forward}
}

// Epoch returns the tracer's creation time, the origin of its
// exported timestamps.
func (t *Tracer) Epoch() time.Time { return t.epoch }

// Record stores one completed span, overwriting the oldest once a
// bounded store is full, then forwards it.
func (t *Tracer) Record(rec SpanRecord) {
	t.mu.Lock()
	if t.keep == 0 || len(t.recs) < t.keep {
		t.recs = append(t.recs, rec)
	} else {
		t.recs[t.next] = rec
		t.next = (t.next + 1) % t.keep
	}
	t.mu.Unlock()
	if t.forward != nil {
		t.forward.Record(rec)
	}
}

// records returns a copy of the retained records in completion order.
//
//lockguard:held mu
func (t *Tracer) records() []SpanRecord {
	out := make([]SpanRecord, 0, len(t.recs))
	out = append(out, t.recs[t.next:]...)
	return append(out, t.recs[:t.next]...)
}

// Len returns the number of retained records.
//
//lint:ignore unusedexport e2ebench: the benchmark counts recorded spans with it
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.recs)
}

// Snapshot returns copies of the retained records that ended at or
// after since, sorted by start time (ties: longer span first, so an
// enclosing span precedes the spans it contains) — WriteFlight's
// input order.
func (t *Tracer) Snapshot(since time.Time) []SpanRecord {
	t.mu.Lock()
	all := t.records()
	t.mu.Unlock()
	out := all[:0]
	for _, rec := range all {
		if !rec.End().Before(since) {
			out = append(out, rec)
		}
	}
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].Dur > out[j].Dur
	})
	return out
}

// Span is one in-progress traced operation. The zero of the API is a
// nil *Span: every method is a no-op on nil, so callers instrument
// unconditionally and pay nothing when tracing is off.
//
// A Span is owned by the goroutine that started it; SetArg and End
// must not race with each other.
type Span struct {
	tracer *Tracer
	name   string
	tid    int
	start  time.Time
	args   map[string]any
	ended  bool
}

// StartSpan begins a span named name on the context's tracer and
// returns a derived context carrying it, so child spans nest inside
// it (they inherit its lane). Without a tracer it returns ctx and a
// nil span, both safe to use.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	t := TracerFrom(ctx)
	if t == nil {
		return ctx, nil
	}
	s := &Span{tracer: t, name: name, start: t.now()}
	if parent := CurrentSpan(ctx); parent != nil {
		s.tid = parent.tid
	}
	return context.WithValue(ctx, spanKey, s), s
}

// SetTID moves the span onto lane tid — engine.Map pins each worker
// slot to its own lane so traces render one row per worker.
func (s *Span) SetTID(tid int) {
	if s == nil {
		return
	}
	s.tid = tid
}

// SetArg attaches a key/value to the span's trace_event args.
func (s *Span) SetArg(key string, val any) {
	if s == nil {
		return
	}
	if s.args == nil {
		s.args = make(map[string]any, 4)
	}
	s.args[key] = val
}

// End completes the span and records it. Calling End twice records
// once.
func (s *Span) End() {
	if s == nil || s.ended {
		return
	}
	s.ended = true
	t := s.tracer
	t.Record(SpanRecord{Name: s.name, Start: s.start, Dur: t.now().Sub(s.start), TID: s.tid, Args: s.args})
}

// traceEvent is one complete ("ph":"X") trace_event record. pid is
// always 1 — one process — and tid maps onto engine worker slots, so
// a trace renders as one lane per worker with nested spans.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`  // start, µs since tracer epoch
	Dur  float64        `json:"dur"` // duration, µs
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteJSON writes the retained records as a trace_event JSON array
// of complete events in completion order, one event per line so
// traces diff readably.
func (t *Tracer) WriteJSON(w io.Writer) error {
	t.mu.Lock()
	recs := t.records()
	t.mu.Unlock()
	events := make([]traceEvent, len(recs))
	for i, rec := range recs {
		events[i] = traceEvent{
			Name: rec.Name,
			Ph:   "X",
			TS:   float64(rec.Start.Sub(t.epoch).Nanoseconds()) / 1e3,
			Dur:  float64(rec.Dur.Nanoseconds()) / 1e3,
			PID:  1,
			TID:  rec.TID,
			Args: rec.Args,
		}
	}
	return writeEvents(w, events)
}

// JSON returns the retained records as a trace_event JSON array — the
// payload exemplar capture pins for a slow request.
func (t *Tracer) JSON() []byte {
	var buf bytes.Buffer
	if err := t.WriteJSON(&buf); err != nil {
		return []byte("[]\n") // only a Marshal failure, which traceEvent cannot produce
	}
	return buf.Bytes()
}

// WriteFile writes the trace_event JSON to path.
func (t *Tracer) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteJSON(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}

// writeEvents writes events as a JSON array, one event per line — the
// one writer behind both the complete-event and the flight-dump
// format.
func writeEvents[E any](w io.Writer, events []E) error {
	if _, err := io.WriteString(w, "[\n"); err != nil {
		return err
	}
	for i, ev := range events {
		data, err := json.Marshal(ev)
		if err != nil {
			return err
		}
		sep := ",\n"
		if i == len(events)-1 {
			sep = "\n"
		}
		if _, err := w.Write(append(data, sep...)); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "]\n")
	return err
}
