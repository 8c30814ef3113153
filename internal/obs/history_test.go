package obs

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"sync"
	"testing"
	"time"
)

func TestHistoryTickAndGet(t *testing.T) {
	h := NewHistory(10*time.Second, time.Minute)
	var v float64
	h.Register("test_series", func() float64 { return v })

	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 4; i++ {
		v = float64(i * 10)
		h.Tick(base.Add(time.Duration(i) * 10 * time.Second))
	}
	samples, ok := h.Get("test_series", time.Time{})
	if !ok || len(samples) != 4 {
		t.Fatalf("Get = %v ok=%v, want 4 samples", samples, ok)
	}
	if samples[3].V != 30 {
		t.Fatalf("last sample %v, want 30", samples[3])
	}
	// Windowed query drops the early samples.
	since := base.Add(15 * time.Second)
	samples, _ = h.Get("test_series", since)
	if len(samples) != 2 || samples[0].V != 20 {
		t.Fatalf("windowed Get = %v, want samples at 20s and 30s", samples)
	}
	if _, ok := h.Get("no_such_series", time.Time{}); ok {
		t.Fatal("unknown series reported ok")
	}
}

func TestHistoryRingWraps(t *testing.T) {
	h := NewHistory(time.Second, 4*time.Second) // capacity 4
	n := 0.0
	h.Register("wrap_series", func() float64 { n++; return n })
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i := 0; i < 10; i++ {
		h.Tick(base.Add(time.Duration(i) * time.Second))
	}
	samples, _ := h.Get("wrap_series", time.Time{})
	if len(samples) != 4 {
		t.Fatalf("kept %d samples, want capacity 4", len(samples))
	}
	// Oldest-first after wrap: values 7,8,9,10.
	for i, want := range []float64{7, 8, 9, 10} {
		if samples[i].V != want {
			t.Fatalf("samples = %v, want values 7..10 in order", samples)
		}
	}
}

func TestHistoryDeltaAndMax(t *testing.T) {
	h := NewHistory(time.Second, time.Minute)
	v := 0.0
	h.Register("counter_total", func() float64 { return v })
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for i, val := range []float64{5, 9, 100, 40} {
		v = val
		h.Tick(base.Add(time.Duration(i) * time.Second))
	}
	first, last, ok := h.Delta("counter_total", time.Time{})
	if !ok || first.V != 5 || last.V != 40 {
		t.Fatalf("Delta = %v..%v ok=%v, want 5..40", first, last, ok)
	}
	mx, ok := h.Max("counter_total", time.Time{})
	if !ok || mx != 100 {
		t.Fatalf("Max = %v ok=%v, want 100", mx, ok)
	}
	if _, _, ok := h.Delta("counter_total", base.Add(10*time.Second)); ok {
		t.Fatal("Delta on an empty window reported ok")
	}
}

func TestHistorySanitizesNonFinite(t *testing.T) {
	h := NewHistory(time.Second, time.Minute)
	vals := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	i := 0
	h.Register("weird_series", func() float64 { v := vals[i%len(vals)]; i++; return v })
	base := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	for k := 0; k < 3; k++ {
		h.Tick(base.Add(time.Duration(k) * time.Second))
	}
	samples, _ := h.Get("weird_series", time.Time{})
	for _, s := range samples {
		if s.V != 0 {
			t.Fatalf("non-finite sample leaked: %v", samples)
		}
	}
	var buf bytes.Buffer
	if err := h.WriteJSON(&buf, nil, time.Time{}); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("WriteJSON produced invalid JSON: %s", buf.Bytes())
	}
}

func TestHistoryWriteJSONShape(t *testing.T) {
	h := NewHistory(10*time.Second, time.Minute)
	h.Register("series_a", func() float64 { return 1 })
	h.Register("series_b", func() float64 { return 2 })
	h.Tick(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))

	var buf bytes.Buffer
	if err := h.WriteJSON(&buf, []string{"series_a", "missing"}, time.Time{}); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		IntervalMS int64               `json:"interval_ms"`
		Series     map[string][]Sample `json:"series"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("invalid JSON: %v\n%s", err, buf.Bytes())
	}
	if doc.IntervalMS != 10000 {
		t.Fatalf("interval_ms = %d, want 10000", doc.IntervalMS)
	}
	if len(doc.Series["series_a"]) != 1 || doc.Series["series_a"][0].V != 1 {
		t.Fatalf("series_a = %v", doc.Series["series_a"])
	}
	if got, ok := doc.Series["missing"]; !ok || len(got) != 0 {
		t.Fatalf("missing series = %v ok=%v, want present and empty", got, ok)
	}
	if _, ok := doc.Series["series_b"]; ok {
		t.Fatal("unrequested series_b rendered")
	}
}

func TestHistorySubscribe(t *testing.T) {
	h := NewHistory(time.Second, time.Minute)
	h.Register("sub_series", func() float64 { return 42 })
	ch, cancel := h.Subscribe(2)
	snap := h.Tick(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	got := <-ch
	if got.T != snap.T || got.Values["sub_series"] != 42 {
		t.Fatalf("subscriber got %+v, want %+v", got, snap)
	}
	cancel()
	if _, open := <-ch; open {
		t.Fatal("channel still open after cancel")
	}
	cancel() // idempotent: must not close twice (would panic)
}

// TestHistorySubscribeChurn is the -race test for concurrent
// subscribe/unsubscribe while the tick loop fans out.
func TestHistorySubscribeChurn(t *testing.T) {
	h := NewHistory(time.Second, time.Minute)
	h.Register("churn_series", func() float64 { return 1 })
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
		for {
			select {
			case <-stop:
				return
			default:
			}
			now = now.Add(time.Second)
			h.Tick(now)
		}
	}()
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				ch, cancel := h.Subscribe(1)
				select { // drain at most one tick; slow subscribers just drop
				case <-ch:
				default:
				}
				cancel()
			}
		}()
	}
	// Concurrent windowed reads against the ticking store.
	for i := 0; i < 200; i++ {
		h.Get("churn_series", time.Time{})
	}
	close(stop)
	wg.Wait()
}

func TestHistoryRegisterHistogramAndCounter(t *testing.T) {
	h := NewHistory(time.Second, time.Minute)
	hist := NewHistogram("reg_test_duration")
	hist.Observe(100 * time.Millisecond)
	c := NewCounter("reg_test_total")
	c.Add(7)
	h.RegisterHistogram(hist.Name(), hist)
	h.RegisterCounter(c)
	snap := h.Tick(time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC))
	if snap.Values["reg_test_duration_count"] != 1 {
		t.Fatalf("histogram count series = %v", snap.Values)
	}
	if snap.Values["reg_test_duration_p99_ns"] <= 0 {
		t.Fatalf("histogram p99 series = %v", snap.Values)
	}
	if snap.Values["reg_test_total"] != 7 {
		t.Fatalf("counter series = %v", snap.Values)
	}
}

func TestRegisterRuntimeSeries(t *testing.T) {
	h := NewHistory(time.Second, time.Minute)
	RegisterRuntimeSeries(h)
	snap := h.Tick(time.Now())
	if snap.Values["runtime_heap_bytes"] <= 0 {
		t.Fatalf("runtime_heap_bytes = %v, want > 0", snap.Values["runtime_heap_bytes"])
	}
	if snap.Values["runtime_goroutines"] < 1 {
		t.Fatalf("runtime_goroutines = %v, want >= 1", snap.Values["runtime_goroutines"])
	}
	for _, name := range []string{"runtime_gc_cycles", "runtime_gc_pause_p99_ns", "runtime_sched_latency_p99_ns"} {
		if _, ok := snap.Values[name]; !ok {
			t.Fatalf("series %s missing from snapshot", name)
		}
	}
}

func BenchmarkSnapshotTick(b *testing.B) {
	h := NewHistory(10*time.Second, time.Hour)
	RegisterRuntimeSeries(h)
	for i := 0; i < 20; i++ {
		hist := NewHistogram(fmt.Sprintf("bench_hist_%d", i))
		hist.Observe(time.Millisecond)
		h.RegisterHistogram(hist.Name(), hist)
	}
	now := time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		now = now.Add(10 * time.Second)
		h.Tick(now)
	}
}

func TestHistoryLast(t *testing.T) {
	h := NewHistory(10*time.Second, time.Minute)
	if _, ok := h.Last(); ok {
		t.Fatal("Last reported a tick before the first one")
	}
	t0 := time.Date(2001, 2, 3, 4, 5, 6, 0, time.UTC)
	h.Tick(t0)
	h.Tick(t0.Add(10 * time.Second))
	if last, ok := h.Last(); !ok || !last.Equal(t0.Add(10*time.Second)) {
		t.Fatalf("Last = %v, %v; want %v, true", last, ok, t0.Add(10*time.Second))
	}
}
