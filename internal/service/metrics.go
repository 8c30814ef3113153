package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"tradeoff/internal/obs"
)

// metrics holds the server's instruments, per-Server so several
// servers can run side by side. GET /metrics renders them as JSON,
// ?format=prom as Prometheus text (see prom.go), and registerSeries
// samples them into the history; all three walk the same scalars
// table and endpoints slice, so each series is declared once.
type metrics struct {
	requests    atomic.Int64 // requests accepted, all endpoints
	errors      atomic.Int64 // responses with status >= 400
	cacheHits   atomic.Int64 // memoization hits (cache or shared flight)
	cacheMisses atomic.Int64 // memoization misses
	inFlight    atomic.Int64 // requests currently being served

	// endpoints holds one entry per route, sorted by route. Entries are
	// added only while New wires the routes, so the slice is fixed
	// before the first request and read without a lock.
	endpoints []*endpointStats

	// xval is the latest cross-validation sample per workload from the
	// continuous model-vs-exact loop (Server.RunXVal), plus the pass
	// counter; rendered as live error gauges in both formats.
	xvalMu     sync.Mutex
	xval       map[string]xvalSample
	xvalPasses int64

	// engine carries the engine-level instruments (queue wait,
	// evaluation time, memo outcomes); the request middleware threads
	// it into every request context so engine.Map and engine.Memo
	// record into it. Wired by New.
	engine *obs.EngineStats

	// cacheBytes reads the response memo's live byte total — the gauge
	// behind the byte-bounded LRU. Wired by New.
	cacheBytes func() int64

	// slo scores the configured objectives' burn rates. It is nil
	// without objectives, which keeps both /metrics documents —
	// including the goldens — byte-identical to a server without an
	// SLO layer. Wired by New.
	slo func() []sloStatus
}

// endpointStats is one route's instruments. evaluations advances only
// when the endpoint's run function executes, so (requests -
// evaluations) is the work the memo and its singleflight absorbed.
type endpointStats struct {
	route                         string
	requests, errors, evaluations atomic.Int64
	duration                      *obs.Histogram
}

// scalar is one unlabeled series: its name as JSON and the history
// spell it (Prometheus adds the tradeoffd_ prefix), HELP text, TYPE
// and current value.
type scalar struct {
	name, help, kind string
	value            func() int64
}

// scalars is the one declaration of the service-wide series every
// renderer loops over.
func (m *metrics) scalars() []scalar {
	return []scalar{
		{"requests_total", "Requests accepted across all endpoints.", "counter", m.requests.Load},
		{"errors_total", "Responses with status >= 400.", "counter", m.errors.Load},
		{"cache_hits", "Response-memo hits (cache or shared flight).", "counter", m.cacheHits.Load},
		{"cache_misses", "Response-memo misses.", "counter", m.cacheMisses.Load},
		{"cache_bytes", "Bytes held by the response memo.", "gauge", m.cacheBytes},
		{"in_flight", "Requests currently being served.", "gauge", m.inFlight.Load},
	}
}

func newMetrics() *metrics {
	return &metrics{xval: make(map[string]xvalSample)}
}

// endpoint returns the route's instruments, adding them in route
// order on first use. Routes are added only during construction.
func (m *metrics) endpoint(route string) *endpointStats {
	i, ok := slices.BinarySearchFunc(m.endpoints, route, func(ep *endpointStats, route string) int {
		return strings.Compare(ep.route, route)
	})
	if !ok {
		m.endpoints = slices.Insert(m.endpoints, i, &endpointStats{route: route, duration: obs.NewHistogram("request_duration")})
	}
	return m.endpoints[i]
}

// xvalSample is one workload's latest cross-validation outcome: the
// model's hit-ratio error against the exact MRC tier at the pass's
// line size, next to the committed budget.
type xvalSample struct {
	LineSize int     `json:"line_size"`
	MaxAbs   float64 `json:"max_abs_err"`
	MeanAbs  float64 `json:"mean_abs_err"`
	Budget   float64 `json:"error_budget"`
	Within   bool    `json:"within_budget"`
}

// recordXVal stores the latest sample for a workload and advances the
// pass counter.
func (m *metrics) recordXVal(workload string, s xvalSample) {
	m.xvalMu.Lock()
	defer m.xvalMu.Unlock()
	m.xval[workload] = s
	m.xvalPasses++
}

// xvalSnapshot copies the current cross-validation state: the pass
// count and the samples in sorted workload order.
func (m *metrics) xvalSnapshot() (int64, []string, []xvalSample) {
	m.xvalMu.Lock()
	defer m.xvalMu.Unlock()
	names := make([]string, 0, len(m.xval))
	for name := range m.xval {
		names = append(names, name)
	}
	sort.Strings(names)
	samples := make([]xvalSample, len(names))
	for i, name := range names {
		samples[i] = m.xval[name]
	}
	return m.xvalPasses, names, samples
}

// statusWriter captures the response status for error accounting
// while keeping the wrapped writer's optional interfaces reachable:
// Unwrap lets http.ResponseController (and through it the net/http
// internals) find Flusher, Hijacker and friends on the underlying
// writer, and Flush forwards directly so streaming handlers behind
// instrument still flush.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64 // response body bytes written (wide-event access log)
}

func (w *statusWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += int64(n)
	return n, err
}

// Unwrap exposes the underlying writer to http.ResponseController,
// restoring every optional interface (Flusher, Hijacker, deadlines,
// io.ReaderFrom sendfile paths) the wrapper would otherwise swallow.
//
//lint:ignore unusedexport interface: http.ResponseController finds the underlying writer through an unexported Unwrap interface
func (w *statusWriter) Unwrap() http.ResponseWriter { return w.ResponseWriter }

// Flush implements http.Flusher by forwarding through
// ResponseController, which follows Unwrap chains; a writer that
// cannot flush makes this a no-op rather than an error.
func (w *statusWriter) Flush() {
	_ = http.NewResponseController(w.ResponseWriter).Flush()
}

// instrument wraps an endpoint handler with request, error, in-flight
// and duration accounting under the given route — the one
// place every route's timing flows through. A panicking handler does
// not distort the gauges: the deferred accounting restores in_flight,
// counts the request as a 500 and re-panics for the server's own
// recovery.
func (m *metrics) instrument(route string, h http.HandlerFunc) http.HandlerFunc {
	ep := m.endpoint(route)
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		m.requests.Add(1)
		m.inFlight.Add(1)
		ep.requests.Add(1)
		if ri := reqInfoFrom(r.Context()); ri != nil {
			ri.endpoint = ep // the wide-event log's endpoint dimension
		}

		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		defer func() {
			p := recover()
			m.inFlight.Add(-1)
			status := sw.status
			if p != nil {
				status = http.StatusInternalServerError
			}
			if status >= 400 {
				m.errors.Add(1)
				ep.errors.Add(1)
			}
			ep.duration.Observe(time.Since(start))
			if p != nil {
				panic(p)
			}
		}()
		h(sw, r)
	}
}

// serveHTTP renders the instruments: JSON by default, Prometheus text
// exposition with ?format=prom.
func (m *metrics) serveHTTP(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "method not allowed", http.StatusMethodNotAllowed)
		return
	}
	switch f := r.URL.Query().Get("format"); f {
	case "", "json":
	case "prom":
		m.servePrometheus(w)
		return
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (want json or prom)", f), http.StatusBadRequest)
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	_, _ = w.Write(m.jsonDoc()) // a failed write means the client left
}

// jsonDoc renders the JSON document: one top-level key per scalar,
// plus "endpoints" (per-route counters and the duration histogram's
// count / total / max views under their historical keys), the
// cross-validation state and, with objectives configured, "slo".
// Keys are sorted, so a fixed state renders fixed bytes.
func (m *metrics) jsonDoc() []byte {
	type entry struct{ name, value string }
	var doc []entry
	for _, sc := range m.scalars() {
		doc = append(doc, entry{sc.name, strconv.FormatInt(sc.value(), 10)})
	}

	var eps strings.Builder
	eps.WriteByte('{')
	for i, ep := range m.endpoints {
		if i > 0 {
			eps.WriteString(", ")
		}
		sum := ep.duration.Sum()
		fmt.Fprintf(&eps, `%q: {"duration_count": %d, "duration_ns_max": %d, "duration_ns_total": %d, "errors": %d, "evaluations": %d, "latency_us_total": %d, "requests": %d}`,
			ep.route, ep.duration.Count(), ep.duration.Max().Nanoseconds(), sum.Nanoseconds(),
			ep.errors.Load(), ep.evaluations.Load(), sum.Microseconds(), ep.requests.Load())
	}
	eps.WriteByte('}')
	doc = append(doc, entry{"endpoints", eps.String()})

	m.xvalMu.Lock()
	passes := m.xvalPasses
	xvalDoc, err := json.Marshal(m.xval) // map keys render sorted
	m.xvalMu.Unlock()
	if err != nil {
		xvalDoc = []byte("{}") // xvalSample cannot fail to marshal
	}
	doc = append(doc, entry{"xval_passes", strconv.FormatInt(passes, 10)}, entry{"xval", string(xvalDoc)})

	if m.slo != nil {
		slos, err := json.Marshal(m.slo())
		if err != nil {
			slos = []byte("[]") // sloStatus cannot fail to marshal
		}
		doc = append(doc, entry{"slo", string(slos)})
	}

	sort.Slice(doc, func(i, j int) bool { return doc[i].name < doc[j].name })
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, e := range doc {
		if i > 0 {
			buf.WriteString(",\n")
		}
		fmt.Fprintf(&buf, "%q: %s", e.name, e.value)
	}
	buf.WriteString("\n}\n")
	return buf.Bytes()
}
