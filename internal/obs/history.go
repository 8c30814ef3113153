package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"time"
)

// Sample is one time-series point: wall-clock milliseconds and value.
type Sample struct {
	T int64   `json:"t"` // unix milliseconds
	V float64 `json:"v"`
}

// seriesRing is one series' fixed-size sample ring plus its sampler.
type seriesRing struct {
	fn      func() float64
	samples []Sample
	next    int
	full    bool
}

func (s *seriesRing) push(sm Sample) {
	if len(s.samples) < cap(s.samples) {
		s.samples = append(s.samples, sm)
	} else {
		s.samples[s.next] = sm
		s.full = true
	}
	s.next++
	if s.next == cap(s.samples) {
		s.next = 0
	}
}

// inOrder returns the retained samples oldest-first.
func (s *seriesRing) inOrder() []Sample {
	if !s.full {
		out := make([]Sample, len(s.samples))
		copy(out, s.samples)
		return out
	}
	out := make([]Sample, 0, len(s.samples))
	out = append(out, s.samples[s.next:]...)
	out = append(out, s.samples[:s.next]...)
	return out
}

// TickSnapshot is one snapshot cycle's output: the tick time and every
// series' sampled value — what SSE dashboard subscribers receive.
type TickSnapshot struct {
	T      int64              `json:"t"` // unix milliseconds
	Values map[string]float64 `json:"values"`
}

// History is the in-process time-series store: named gauge samplers
// registered once, sampled together on every Tick into fixed-size
// per-series rings (capacity = window / interval), and served as JSON
// windows. It answers "what did this process look like ten minutes
// ago" without any external metrics stack.
//
// Series names follow the /metrics snake_case scheme; the metricreg
// analyzer checks constant names passed to Register at build time.
// History is safe for concurrent use.
type History struct {
	interval time.Duration
	capacity int

	mu     sync.Mutex
	order  []string
	series map[string]*seriesRing
	subs   map[int]chan TickSnapshot
	subID  int
	ticks  int64
	last   time.Time // the newest tick's time
}

// NewHistory returns a store sampling every interval (default 10s)
// and retaining window (default 1h) of samples per series.
func NewHistory(interval, window time.Duration) *History {
	if interval <= 0 {
		interval = 10 * time.Second
	}
	if window < interval {
		window = time.Hour
	}
	capacity := int(window / interval)
	if capacity < 2 {
		capacity = 2
	}
	return &History{
		interval: interval,
		capacity: capacity,
		series:   make(map[string]*seriesRing),
		subs:     make(map[int]chan TickSnapshot),
	}
}

// Interval returns the snapshot cadence.
func (h *History) Interval() time.Duration { return h.interval }

// Register adds (or replaces) the sampler behind the named series.
// Names are constant at call sites by convention so the metricreg
// analyzer can enforce snake_case and uniqueness at build time; a
// replaced sampler keeps the series' retained samples.
func (h *History) Register(name string, fn func() float64) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if sr, ok := h.series[name]; ok {
		sr.fn = fn
		return
	}
	h.series[name] = &seriesRing{fn: fn, samples: make([]Sample, 0, h.capacity)}
	h.order = append(h.order, name)
}

// RegisterCounter samples c's running total under the counter's own
// (metricreg-checked) name.
func (h *History) RegisterCounter(c *Counter) {
	h.Register(c.Name(), func() float64 { return float64(c.Value()) })
}

// RegisterHistogram derives three series from hist: <prefix>_p50_ns,
// <prefix>_p99_ns and <prefix>_count. The quantiles are the
// histogram's rolling estimates at each tick; the count is cumulative,
// so a window's rate is the count delta over the window. This is the
// one place a histogram's history series are named.
func (h *History) RegisterHistogram(prefix string, hist *Histogram) {
	h.Register(prefix+"_p50_ns", func() float64 { return float64(hist.Quantile(0.5).Nanoseconds()) })
	h.Register(prefix+"_p99_ns", func() float64 { return float64(hist.Quantile(0.99).Nanoseconds()) })
	h.Register(prefix+"_count", func() float64 { return float64(hist.Count()) })
}

// Names returns the registered series names in registration order.
func (h *History) Names() []string {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]string, len(h.order))
	copy(out, h.order)
	return out
}

// Last returns the time of the newest tick, and false before the
// first one. Readers that score windows of the rings (the SLO burn
// rates) end their windows here rather than at the wall clock, so the
// same history yields the same answer on any date.
func (h *History) Last() (time.Time, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.last, h.ticks > 0
}

// Tick samples every registered series at now and fans the snapshot
// out to subscribers. Samplers run under the store lock; they are all
// atomic reads by construction (counters, histogram buckets), so a
// tick costs microseconds. A sampler returning NaN or ±Inf records
// 0 — rings must stay JSON-encodable.
func (h *History) Tick(now time.Time) TickSnapshot {
	h.mu.Lock()
	snap := TickSnapshot{T: now.UnixMilli(), Values: make(map[string]float64, len(h.order))}
	for _, name := range h.order {
		sr := h.series[name]
		v := sr.fn()
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		sr.push(Sample{T: snap.T, V: v})
		snap.Values[name] = v
	}
	h.ticks++
	h.last = now
	// Fan out under the lock: sends are non-blocking, and cancel
	// deletes a subscriber from the map (also under the lock) before
	// closing its channel, so a channel visible here cannot be closed
	// mid-send.
	for _, ch := range h.subs {
		select {
		case ch <- snap: // slow subscribers drop ticks rather than stall the schedule
		default:
		}
	}
	h.mu.Unlock()
	return snap
}

// Subscribe registers a snapshot listener with the given channel
// buffer and returns the channel plus a cancel function. Cancel is
// idempotent and closes the channel, so SSE handlers can range over
// it.
func (h *History) Subscribe(buf int) (<-chan TickSnapshot, func()) {
	if buf < 1 {
		buf = 1
	}
	ch := make(chan TickSnapshot, buf)
	h.mu.Lock()
	id := h.subID
	h.subID++
	h.subs[id] = ch
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		_, live := h.subs[id]
		delete(h.subs, id)
		h.mu.Unlock()
		if live {
			close(ch)
		}
	}
}

// Get returns the retained samples for name at or after since. The
// second return is false for an unregistered series.
func (h *History) Get(name string, since time.Time) ([]Sample, bool) {
	h.mu.Lock()
	defer h.mu.Unlock()
	sr, ok := h.series[name]
	if !ok {
		return nil, false
	}
	all := sr.inOrder()
	cut := since.UnixMilli()
	i := sort.Search(len(all), func(i int) bool { return all[i].T >= cut })
	return all[i:], true
}

// Delta returns the first and last retained samples of name inside
// [since, now]; ok is false when the window holds fewer than two
// samples. Cumulative-counter series turn into windowed rates this
// way: (last.V - first.V) / (last.T - first.T).
func (h *History) Delta(name string, since time.Time) (first, last Sample, ok bool) {
	samples, found := h.Get(name, since)
	if !found || len(samples) < 2 {
		return Sample{}, Sample{}, false
	}
	return samples[0], samples[len(samples)-1], true
}

// Max returns the largest sample value of name inside the window, or
// false when the window is empty.
func (h *History) Max(name string, since time.Time) (float64, bool) {
	samples, found := h.Get(name, since)
	if !found || len(samples) == 0 {
		return 0, false
	}
	max := samples[0].V
	for _, s := range samples[1:] {
		if s.V > max {
			max = s.V
		}
	}
	return max, true
}

// WriteJSON renders the named series (all registered series when
// names is empty) at or after since as one JSON document:
//
//	{"interval_ms":10000,"series":{"heap_bytes":[{"t":...,"v":...},...]}}
//
// Unknown names render as empty arrays rather than erroring, so a
// dashboard polling a series that appears after boot degrades
// gracefully.
func (h *History) WriteJSON(w io.Writer, names []string, since time.Time) error {
	if len(names) == 0 {
		names = h.Names()
	}
	if _, err := fmt.Fprintf(w, "{\n\"interval_ms\": %d,\n\"series\": {", h.interval.Milliseconds()); err != nil {
		return err
	}
	for i, name := range names {
		samples, _ := h.Get(name, since)
		if samples == nil {
			samples = []Sample{}
		}
		data, err := json.Marshal(samples)
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := io.WriteString(w, ","); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "\n%q: %s", name, data); err != nil {
			return err
		}
	}
	_, err := io.WriteString(w, "\n}\n}\n")
	return err
}
