package service

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"tradeoff/internal/obs"
)

// obsBase is the fixed clock the deterministic observability tests
// tick with.
var obsBase = time.Date(2026, 8, 8, 12, 0, 0, 0, time.UTC)

// TestHistoryEndpointGolden pins the /metrics/history JSON bytes for
// a fixed, hand-ticked history state. Only deterministic series are
// requested (the runtime collector's values vary per process).
// Regenerate with -update-golden.
func TestHistoryEndpointGolden(t *testing.T) {
	s := New(Options{HistoryInterval: 10 * time.Second, HistoryWindow: time.Minute})
	s.metrics.requests.Add(5)
	s.metrics.errors.Add(1)
	s.history.Tick(obsBase)
	s.metrics.requests.Add(4)
	s.metrics.errors.Add(1)
	s.history.Tick(obsBase.Add(10 * time.Second))

	rec := httptest.NewRecorder()
	s.handleHistory(rec, httptest.NewRequest(http.MethodGet,
		"/metrics/history?series=requests_total,errors_total,in_flight", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if ct := rec.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
	body := rec.Body.Bytes()
	if !json.Valid(body) {
		t.Fatalf("invalid JSON:\n%s", body)
	}

	path := filepath.Join("testdata", "history_golden.json")
	if *updateGolden {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (re-run with -update-golden?): %v", err)
	}
	if string(body) != string(want) {
		t.Fatalf("history JSON differs from golden\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestHistorySeriesRouteOrder pins the per-endpoint history groups to
// route order, so Names() — and with it /metrics/history without
// series= and the dashboard cards — lists series the same way on every
// construction.
func TestHistorySeriesRouteOrder(t *testing.T) {
	var got []string
	for _, name := range New(Options{}).history.Names() {
		if route, ok := strings.CutPrefix(name, "endpoint_"); ok && strings.HasSuffix(route, "_p50_ns") {
			got = append(got, strings.TrimSuffix(route, "_p50_ns"))
		}
	}
	want := []string{"healthz", "v1_optimize", "v1_stall", "v1_sweep", "v1_tradeoff"}
	if !slices.Equal(got, want) {
		t.Fatalf("endpoint p50 series in order %v, want %v", got, want)
	}
}

// TestSeriesNamingContract checks every series name the service
// publishes, declared or computed from a route, in the Prometheus
// exposition (SLO gauges included) and the metrics history: each is
// lower snake_case, and none repeats within its document.
func TestSeriesNamingContract(t *testing.T) {
	slos, err := obs.ParseSLOs("sweep:p99<250ms,err<1%;stall:p99<2s")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{SLOs: slos})
	nameRE := regexp.MustCompile(`^[a-z][a-z0-9_]*$`)

	rec := httptest.NewRecorder()
	s.metrics.serveHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
	families, series := map[string]bool{}, map[string]bool{}
	for _, line := range strings.Split(strings.TrimSuffix(rec.Body.String(), "\n"), "\n") {
		if typ, ok := strings.CutPrefix(line, "# TYPE "); ok {
			name := strings.Fields(typ)[0]
			if families[name] {
				t.Errorf("prom family %q declared twice", name)
			}
			families[name] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		id := line[:strings.LastIndexByte(line, ' ')] // name{labels}
		if series[id] {
			t.Errorf("prom series %q repeats", id)
		}
		series[id] = true
		name, _, _ := strings.Cut(id, "{")
		if !nameRE.MatchString(name) {
			t.Errorf("prom series name %q is not snake_case", name)
		}
	}
	if !families["tradeoffd_slo_burning"] {
		t.Fatalf("SLO gauges missing from the exposition:\n%s", rec.Body.String())
	}

	seen := map[string]bool{}
	for _, name := range s.history.Names() {
		if seen[name] {
			t.Errorf("history series %q repeats", name)
		}
		seen[name] = true
		if !nameRE.MatchString(name) {
			t.Errorf("history series name %q is not snake_case", name)
		}
	}
}

func TestHistoryEndpointValidation(t *testing.T) {
	s := New(Options{})
	rec := httptest.NewRecorder()
	s.handleHistory(rec, httptest.NewRequest(http.MethodGet, "/metrics/history?window=banana", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad window: status %d, want 400", rec.Code)
	}
	rec = httptest.NewRecorder()
	s.handleHistory(rec, httptest.NewRequest(http.MethodPost, "/metrics/history", nil))
	if rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("POST: status %d, want 405", rec.Code)
	}
}

// TestSLOPrometheusGolden pins the tradeoffd_slo_* gauge bytes for a
// fixed burn-rate state. Regenerate with -update-golden.
func TestSLOPrometheusGolden(t *testing.T) {
	sts := []sloStatus{
		{
			Endpoint:      "/v1/sweep",
			P99TargetNS:   (250 * time.Millisecond).Nanoseconds(),
			ErrorBudget:   0.01,
			LatencyBurn5m: 2.5, LatencyBurn1h: 1.25,
			ErrorBurn5m: 0.5, ErrorBurn1h: 0.25,
			Burning: true,
		},
		{
			Endpoint:      "/v1/stall",
			P99TargetNS:   (2 * time.Second).Nanoseconds(),
			LatencyBurn5m: 0.1, LatencyBurn1h: 0.2,
		},
	}
	var buf bytes.Buffer
	promSLOGauges(&buf, sts)
	body := buf.Bytes()

	path := filepath.Join("testdata", "slo_golden.prom")
	if *updateGolden {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading golden (re-run with -update-golden?): %v", err)
	}
	if string(body) != string(want) {
		t.Fatalf("SLO exposition differs from golden\ngot:\n%s\nwant:\n%s", body, want)
	}
}

// TestSLOLayerLive drives the SLO layer end to end on hand-ticked
// history: an endpoint violating its latency target and error budget
// must report burning on both /metrics formats, while a server
// without SLOs keeps both documents free of any slo key (the
// byte-identity guarantee the Prometheus golden also pins).
func TestSLOLayerLive(t *testing.T) {
	slos, err := obs.ParseSLOs("tradeoff:p99<1ms,err<1%")
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{SLOs: slos, HistoryInterval: 10 * time.Second, HistoryWindow: time.Hour})
	// 100 requests, 10 errors (10× the 1% budget), p99 ~16ms (16× the
	// 1ms target) on /v1/tradeoff.
	ep := s.metrics.endpoint("/v1/tradeoff")
	s.history.Tick(obsBase)
	for i := 0; i < 100; i++ {
		ep.duration.Observe(16 * time.Millisecond)
	}
	ep.requests.Add(100)
	ep.errors.Add(10)
	s.history.Tick(obsBase.Add(10 * time.Second))
	s.history.Tick(obsBase.Add(20 * time.Second))

	now := obsBase.Add(20 * time.Second)
	sts := s.sloStatuses(now)
	if len(sts) != 1 || sts[0].Endpoint != "/v1/tradeoff" {
		t.Fatalf("statuses = %+v", sts)
	}
	st := sts[0]
	if !st.Burning || st.LatencyBurn5m <= 1 || st.ErrorBurn5m <= 1 {
		t.Fatalf("burning state not detected: %+v", st)
	}
	// 10% errors against a 1% budget burns at 10×.
	if st.ErrorBurn5m < 9.9 || st.ErrorBurn5m > 10.1 {
		t.Fatalf("error burn = %v, want ~10", st.ErrorBurn5m)
	}

	rec := httptest.NewRecorder()
	s.metrics.serveHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
	prom := rec.Body.String()
	for _, want := range []string{
		`tradeoffd_slo_latency_burn_rate{endpoint="/v1/tradeoff",window="5m"} `,
		`tradeoffd_slo_error_budget{endpoint="/v1/tradeoff"} 0.01`,
		`tradeoffd_slo_burning{endpoint="/v1/tradeoff"} 1`,
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("prom exposition lacks %q:\n%s", want, prom)
		}
	}

	rec = httptest.NewRecorder()
	s.metrics.serveHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	var doc struct {
		SLO []sloStatus `json:"slo"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &doc); err != nil {
		t.Fatalf("metrics JSON: %v\n%s", err, rec.Body.String())
	}
	if len(doc.SLO) != 1 || !doc.SLO[0].Burning {
		t.Fatalf("JSON slo doc = %+v", doc.SLO)
	}

	// No SLOs → no slo key in either document.
	plain := New(Options{})
	rec = httptest.NewRecorder()
	plain.metrics.serveHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if strings.Contains(rec.Body.String(), `"slo"`) {
		t.Fatalf("plain server leaks slo key:\n%s", rec.Body.String())
	}
	rec = httptest.NewRecorder()
	plain.metrics.serveHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics?format=prom", nil))
	if strings.Contains(rec.Body.String(), "tradeoffd_slo_") {
		t.Fatalf("plain server leaks slo gauges:\n%s", rec.Body.String())
	}
}

// TestFlightEndpoint drives real traffic through the middleware and
// checks the dump is a balanced, per-lane-monotonic B/E trace_event
// array holding the request spans.
func TestFlightEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	for i := 0; i < 3; i++ {
		resp, body := post(t, ts.URL+"/v1/tradeoff", `{"feature":"bus"}`)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("status %d: %s", resp.StatusCode, body)
		}
	}
	resp, body := get(t, ts.URL+"/debug/flight?last=1m")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flight status %d: %s", resp.StatusCode, body)
	}
	var events []struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(body, &events); err != nil {
		t.Fatalf("dump is not a JSON array: %v\n%s", err, body)
	}
	requests := 0
	lastTS := map[int]float64{}
	stacks := map[int][]string{}
	for i, ev := range events {
		if prev, ok := lastTS[ev.TID]; ok && ev.TS < prev {
			t.Fatalf("event %d: lane %d not monotonic", i, ev.TID)
		}
		lastTS[ev.TID] = ev.TS
		switch ev.Ph {
		case "B":
			stacks[ev.TID] = append(stacks[ev.TID], ev.Name)
			if ev.Name == "request" {
				requests++
				if _, ok := ev.Args["request_id"]; !ok {
					t.Errorf("request B event lacks request_id arg: %v", ev.Args)
				}
			}
		case "E":
			st := stacks[ev.TID]
			if len(st) == 0 || st[len(st)-1] != ev.Name {
				t.Fatalf("event %d: unbalanced E %q on lane %d (stack %v)", i, ev.Name, ev.TID, st)
			}
			stacks[ev.TID] = st[:len(st)-1]
		default:
			t.Fatalf("event %d: phase %q", i, ev.Ph)
		}
	}
	for tid, st := range stacks {
		if len(st) > 0 {
			t.Fatalf("lane %d left open: %v", tid, st)
		}
	}
	if requests != 3 {
		t.Fatalf("dump holds %d request spans, want 3", requests)
	}

	if resp, _ := get(t, ts.URL+"/debug/flight?last=banana"); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad last: status %d, want 400", resp.StatusCode)
	}
}

// TestSlowExemplarCapture makes the tail threshold trivially low so a
// warm endpoint's next request pins an exemplar, then checks
// /debug/slow serves it with its span tree.
func TestSlowExemplarCapture(t *testing.T) {
	s, ts := newTestServer(t)
	seedFastTail(s, "/healthz")
	resp, _ := get(t, ts.URL+"/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
	if s.exemplars.Captured() == 0 {
		t.Fatal("no exemplar captured past the warmup gate")
	}
	resp, body := get(t, ts.URL+"/debug/slow")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("slow status %d: %s", resp.StatusCode, body)
	}
	var doc slowResponse
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatalf("slow JSON: %v\n%s", err, body)
	}
	if doc.Captured == 0 || doc.Kept == 0 || len(doc.Exemplars) == 0 {
		t.Fatalf("empty slow doc: %+v", doc)
	}
	ex := doc.Exemplars[0]
	if ex.Endpoint != "/healthz" {
		t.Fatalf("exemplar endpoint %q, want /healthz", ex.Endpoint)
	}
	if ex.DurationUS < 0 || ex.ThresholdUS < 0 {
		t.Fatalf("negative durations: %+v", ex)
	}
	var spans []map[string]any
	if err := json.Unmarshal(ex.Spans, &spans); err != nil || len(spans) == 0 {
		t.Fatalf("exemplar spans invalid (err %v): %s", err, ex.Spans)
	}
}

// seedFastTail fills route's duration histogram with 1 ns
// observations, well past slowMinSamples, so its rolling p99 sits so
// far below any real request that the route's next request is pinned
// as an exemplar.
func seedFastTail(s *Server, route string) {
	h := s.metrics.endpoint(route).duration
	for i := 0; i < 10000; i++ {
		h.Observe(time.Nanosecond)
	}
}

// TestExemplarKeepsRootSpan pins the exemplar of a request with more
// spans than a request's span tree retains: the root "request" span
// ends last, so a keep-newest bound must still hold it, with the path,
// request ID and status that identify the request.
func TestExemplarKeepsRootSpan(t *testing.T) {
	s, ts := newTestServer(t)
	seedFastTail(s, "/v1/sweep")
	// 20 × 4 × 8 = 640 model-priced points, one sweep_point span each.
	cacheKB := make([]string, 20)
	for i := range cacheKB {
		cacheKB[i] = strconv.Itoa(4 * (i + 1))
	}
	cfg := `{"cache_kb":[` + strings.Join(cacheKB, ",") + `],"line_bytes":[8,16,32,64],
		"bus_bits":[8,16,24,32,40,48,56,64],"latency_ns":360,"transfer_ns":60,"cpu_ns":30,
		"hit_source":"model"}`
	resp, body := post(t, ts.URL+"/v1/sweep", cfg)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep status %d: %s", resp.StatusCode, body)
	}
	ex := s.exemplars.Snapshot()
	if len(ex) != 1 {
		t.Fatalf("%d exemplars, want the sweep pinned once", len(ex))
	}
	var spans []struct {
		Name string         `json:"name"`
		Args map[string]any `json:"args"`
	}
	if err := json.Unmarshal(ex[0].Spans, &spans); err != nil {
		t.Fatalf("exemplar spans: %v", err)
	}
	if len(spans) != requestSpanLimit {
		t.Fatalf("exemplar holds %d spans, want the bound %d (the sweep has more)", len(spans), requestSpanLimit)
	}
	var roots []map[string]any
	for _, sp := range spans {
		if sp.Name == "request" {
			roots = append(roots, sp.Args)
		}
	}
	if len(roots) != 1 {
		t.Fatalf("exemplar holds %d request spans, want 1", len(roots))
	}
	want := map[string]any{
		"path":       "/v1/sweep",
		"request_id": resp.Header.Get("X-Request-ID"),
		"status":     float64(http.StatusOK),
	}
	for k, v := range want {
		if roots[0][k] != v {
			t.Errorf("request span arg %s = %v, want %v", k, roots[0][k], v)
		}
	}
}

// TestWideEventLog pins the one-line-per-request access log: every
// dimension known at completion on a single structured line.
func TestWideEventLog(t *testing.T) {
	var buf syncBuffer
	s := New(Options{Logger: obs.NewLogger(&buf, obs.LevelInfo)})
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	resp, _ := post(t, ts.URL+"/v1/tradeoff", `{"feature":"bus"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	line := ""
	for _, l := range strings.Split(buf.String(), "\n") {
		if strings.Contains(l, "msg=request") {
			line = l
			break
		}
	}
	if line == "" {
		t.Fatalf("no access-log line:\n%s", buf.String())
	}
	for _, kv := range []string{
		"method=POST",
		"path=/v1/tradeoff",
		"status=200",
		"duration_us=",
		"bytes=",
		"request_id=",
		"endpoint=/v1/tradeoff",
		"cache=miss",
		"key=",
	} {
		if !strings.Contains(line, kv) {
			t.Errorf("access log line lacks %q:\n%s", kv, line)
		}
	}

	// The key is a 16-hex-char hash, not raw payload bytes.
	fields := strings.Fields(line)
	for _, f := range fields {
		if v, ok := strings.CutPrefix(f, "key="); ok {
			if len(v) != 16 {
				t.Fatalf("key hash %q, want 16 hex chars", v)
			}
		}
	}
}

// syncBuffer is a goroutine-safe bytes.Buffer for log capture.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestDashServesHTMLAndSSE covers both halves of /debug/dash: the
// self-contained page and the SSE stream, which must deliver a tick
// fanned out by the history scheduler.
func TestDashServesHTMLAndSSE(t *testing.T) {
	s, ts := newTestServer(t)
	resp, body := get(t, ts.URL+"/debug/dash")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dash status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/html") {
		t.Fatalf("content type %q", ct)
	}
	if !strings.Contains(string(body), "tradeoffd live") || !strings.Contains(string(body), "EventSource") {
		t.Fatalf("dashboard page incomplete:\n%.300s", body)
	}

	sresp, err := http.Get(ts.URL + "/debug/dash?stream=sse")
	if err != nil {
		t.Fatal(err)
	}
	defer sresp.Body.Close()
	if ct := sresp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream content type %q", ct)
	}
	// The subscriber registers on connect; tick until the event shows
	// up (the handler subscribes before we can observe it, so a couple
	// of ticks guarantees delivery).
	done := make(chan struct{})
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				s.obsTick(time.Now())
				time.Sleep(5 * time.Millisecond)
			}
		}
	}()
	defer close(done)
	sc := bufio.NewScanner(sresp.Body)
	sawEvent, sawData := false, false
	for sc.Scan() {
		line := sc.Text()
		if line == "event: tick" {
			sawEvent = true
		}
		if strings.HasPrefix(line, "data: ") {
			var snap obs.TickSnapshot
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &snap); err != nil {
				t.Fatalf("tick payload: %v\n%s", err, line)
			}
			if _, ok := snap.Values["requests_total"]; !ok {
				t.Fatalf("tick lacks requests_total: %v", snap.Values)
			}
			sawData = true
			break
		}
	}
	if !sawEvent || !sawData {
		t.Fatalf("no tick event on the stream (event=%v data=%v, err=%v)", sawEvent, sawData, sc.Err())
	}
}

// TestDashSSEChurn is the -race test for subscriber churn: clients
// connecting and disconnecting while the tick fan-out runs.
func TestDashSSEChurn(t *testing.T) {
	s, ts := newTestServer(t)
	stop := make(chan struct{})
	var tickers sync.WaitGroup
	tickers.Add(1)
	go func() {
		defer tickers.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s.obsTick(time.Now())
			}
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				resp, err := http.Get(ts.URL + "/debug/dash?stream=sse")
				if err != nil {
					t.Error(err)
					return
				}
				buf := make([]byte, 256)
				_, _ = resp.Body.Read(buf) // read a little, then hang up
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(stop)
	tickers.Wait()
}
