// Command e2ebench is tradeoffd's end-to-end and per-layer benchmark.
//
// With -trace 0 it starts the tradeoffd binary named by -tradeoffd as
// a child process with its default flags, drives one workload over
// loopback HTTP from a closed loop of two clients for -seconds, checks
// every response against the in-process answer to the same request,
// cross-checks the server's own /metrics counters, and prints the
// end-to-end metrics. With -trace 1 it replays the same seeded request
// stream in-process, once untraced and once under an obs.Tracer, and
// prints the per-layer metrics and the layer table.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it through run.sh, which builds both binaries from the checkout:
//
//	bash e2ebench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"os/signal"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"tradeoff/internal/obs"
	"tradeoff/internal/service"
)

// setupRuns is how many times a run starts and warms a fresh server;
// setup_s is their median, and the last server is the one timed.
const setupRuns = 5

func main() {
	workload := flag.String("workload", "", "traffic mix: explore, simulate or revisit")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 10, "seconds of timed load")
	traced := flag.Int("trace", 0, "0: end-to-end run over HTTP; 1: traced in-process run")
	bin := flag.String("tradeoffd", "", "tradeoffd binary (-trace 0)")
	flag.Parse()

	w, err := NewWorkload(*workload, *seed)
	if err != nil {
		fatal(err)
	}
	var res result
	switch *traced {
	case 0:
		if *bin == "" {
			fatal(errors.New("-tradeoffd is required with -trace 0"))
		}
		res, err = endToEnd(w, *bin, *seconds)
	case 1:
		res, err = perLayer(w, *seconds)
	default:
		err = fmt.Errorf("-trace %d, want 0 or 1", *traced)
	}
	if err != nil {
		fatal(err)
	}
	res.print()
	if !res.Correct {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "e2ebench:", err)
	os.Exit(2)
}

// result is the run's outcome and the metrics it reports.
type result struct {
	Correct   bool
	Attempted int
	Failed    int
	Metrics   []metric
}

// print writes one line per metric, then the JSON summary line.
func (r result) print() {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	ms := map[string]value{}
	for _, m := range r.Metrics {
		fmt.Printf("%-28s %16.6g %-6s samples=%d\n", m.Name, m.Value, m.Unit, m.Samples)
		ms[m.Name] = value{m.Value, m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{r.Correct, r.Attempted, r.Failed, ms})
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// active is the server a signal must stop before the benchmark exits.
var active struct {
	sync.Mutex
	s *server
}

func init() {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		<-sig
		active.Lock()
		if active.s != nil {
			active.s.stop()
		}
		os.Exit(2)
	}()
}

func setActive(s *server) {
	active.Lock()
	active.s = s
	active.Unlock()
}

// endToEnd is the -trace 0 run.
func endToEnd(w *Workload, bin string, seconds float64) (result, error) {
	client := newClient()
	var setups []float64
	var s *server
	for k := 0; k < setupRuns; k++ {
		t0 := time.Now()
		var err error
		if s, err = startServer(context.Background(), bin); err != nil {
			return result{}, err
		}
		setActive(s)
		if err := warm(client, s.base, w.Warmup); err != nil {
			s.stop()
			return result{}, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		if k < setupRuns-1 {
			s.stop()
		}
	}
	defer s.stop()

	before, err := s.scrape(client)
	if err != nil {
		return result{}, fmt.Errorf("scraping /metrics: %w", err)
	}
	// One P is plenty for two waiting clients and leaves the rest of
	// the machine to the server.
	procs := runtime.GOMAXPROCS(1)
	run := closedLoop(w, seconds, func(req Request) (int, [sha256.Size]byte, error) {
		return send(client, s.base, req)
	})
	outs := run.outs
	runtime.GOMAXPROCS(procs)
	after, err := s.scrape(client)
	if err != nil {
		return result{}, fmt.Errorf("scraping /metrics: %w", err)
	}
	rss, err := s.peakRSSMB()
	if err != nil {
		return result{}, err
	}
	s.stop()
	setActive(nil)

	failed := verify(w, outs)
	crossOK := crossCheck(w, outs, before, after)

	rps, p50, p90, kept := run.stats()
	n := len(outs)
	errShare := float64(failed) / float64(n)
	fmt.Printf("workload %s seed %d: %d requests in %.3fs, %d clients closed-loop, error_share %g\n",
		w.Name, w.Seed, n, run.elapsed.Seconds(), clients, errShare)
	return result{
		Correct:   failed == 0 && crossOK,
		Attempted: n,
		Failed:    failed,
		Metrics: []metric{
			{"throughput_rps", rps, "1/s", kept},
			{"latency_p50_ms", p50, "ms", kept},
			{"latency_p90_ms", p90, "ms", kept},
			{"ok_share", 1 - errShare, "share", n},
			{"setup_s", median(setups), "s", len(setups)},
			{"peak_rss_mb", rss, "MB", 1},
		},
	}, nil
}

// quantile is the nearest-rank quantile of sorted values.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func median(vs []float64) float64 {
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// verify recomputes every distinct request the server answered
// in-process and compares body hashes; it also checks each answer's
// invariants. It returns how many timed requests failed: a non-200
// status, a transport error, a different body or a broken invariant.
func verify(w *Workload, outs []outcome) int {
	type answer struct {
		sum [sha256.Size]byte
		err error
	}
	var order []Request
	index := map[string]int{}
	for _, o := range outs {
		req := w.At(o.index)
		if _, ok := index[req.key()]; !ok {
			index[req.key()] = len(order)
			order = append(order, req)
		}
	}
	answers := make([]answer, len(order))
	// A fresh pipeline once 64 traces were materialized keeps the
	// in-process trace cache from growing with every new seed, while
	// the few default-seed traces explore's curves come from (and the
	// curves themselves) are built once.
	const chunk = 64
	p := newPipeline()
	for lo := 0; lo < len(order); lo += chunk {
		if p.runner.Traces().Generated() >= 64 {
			p = newPipeline()
		}
		hi := min(lo+chunk, len(order))
		parallel(hi-lo, func(k int) {
			i := lo + k
			body, err := p.serve(context.Background(), order[i])
			if err == nil {
				err = checkInvariants(order[i], body)
			}
			answers[i] = answer{sha256.Sum256(body), err}
		})
	}
	failed := 0
	reported := 0
	for _, o := range outs {
		req := w.At(o.index)
		a := answers[index[req.key()]]
		var err error
		switch {
		case o.err != nil:
			err = o.err
		case o.status != http.StatusOK:
			err = fmt.Errorf("status %d", o.status)
		case a.err != nil:
			err = a.err
		case o.sum != a.sum:
			err = errors.New("body differs from the in-process answer")
		}
		if err != nil {
			failed++
			if reported++; reported <= 5 {
				fmt.Fprintf(os.Stderr, "request %d (%s %s): %v\n", o.index, req.Kind, req.URL(), err)
			}
		}
	}
	return failed
}

// parallel runs fn(0..n-1) on `clients` goroutines.
func parallel(n int, fn func(int)) {
	var wg sync.WaitGroup
	var mu sync.Mutex
	next := 0
	for k := 0; k < clients; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				i := next
				next++
				mu.Unlock()
				if i >= n {
					return
				}
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// crossCheck compares the server's /metrics deltas over the timed run
// with the generator's own counts: requests per endpoint, and
// evaluations per endpoint (a request evaluates when its key was not
// sent before, in warm-up or earlier in the run). It prints the
// server-side memo hit share and engine queue wait.
func crossCheck(w *Workload, outs []outcome, before, after map[string]float64) bool {
	seen := map[string]bool{}
	for _, req := range w.Warmup {
		seen[req.key()] = true
	}
	sort.Slice(outs, func(i, j int) bool { return outs[i].index < outs[j].index })
	reqs, evals := map[string]float64{}, map[string]float64{}
	for _, o := range outs {
		req := w.At(o.index)
		reqs[req.Path]++
		if !seen[req.key()] {
			seen[req.key()] = true
			evals[req.Path]++
		}
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	ok := true
	for _, path := range []string{"/v1/optimize", "/v1/stall", "/v1/sweep", "/v1/tradeoff"} {
		label := fmt.Sprintf("{endpoint=%q}", path)
		gotReq, gotEval := delta("tradeoffd_endpoint_requests"+label), delta("tradeoffd_endpoint_evaluations"+label)
		if gotReq != reqs[path] || gotEval != evals[path] {
			fmt.Fprintf(os.Stderr, "server counts for %s: %g requests, %g evaluations; generator sent %g, expected %g evaluations\n",
				path, gotReq, gotEval, reqs[path], evals[path])
			ok = false
		}
	}
	if got := delta("tradeoffd_requests_total"); got != float64(len(outs)) {
		fmt.Fprintf(os.Stderr, "server counted %g requests, generator sent %d\n", got, len(outs))
		ok = false
	}
	hits, misses := delta("tradeoffd_cache_hits"), delta("tradeoffd_cache_misses")
	waitSum, waitN := delta("tradeoffd_engine_queue_wait_duration_seconds_sum"), delta("tradeoffd_engine_queue_wait_duration_seconds_count")
	fmt.Printf("server side: engine.memo_hit_share %.4f (%g of %g), engine.queue_wait_us %.2f (%g items), cross-check ok=%v\n",
		ratio(hits, hits+misses), hits, hits+misses, ratio(1e6*waitSum, waitN), waitN, ok)
	return ok
}

// tracedSpanBudget bounds the spans a traced run keeps for analysis;
// requests past it are still traced, only not analysed.
const tracedSpanBudget = 300_000

// perLayer is the -trace 1 run.
func perLayer(w *Workload, seconds float64) (result, error) {
	untraced, _, err := inProcess(w, seconds/2, false)
	if err != nil {
		return result{}, err
	}
	runtime.GC() // drop the untraced run's caches before the traced one
	rps := untraced.rps
	traced, p, err := inProcess(w, seconds/2, true)
	if err != nil {
		return result{}, err
	}
	httpUS, httpN, err := httpOverhead(w)
	if err != nil {
		return result{}, err
	}

	ls := newLayerStats()
	failed := traced.failed
	for _, k := range traced.kept {
		var spans []span
		if err := json.Unmarshal(k.tracer.JSON(), &spans); err != nil {
			return result{}, err
		}
		if err := ls.add(k.req, spans); err != nil {
			return result{}, err
		}
		if k.body != nil {
			if err := checkInvariants(k.req, k.body); err != nil {
				fmt.Fprintf(os.Stderr, "%s %s: %v\n", k.req.Kind, k.req.URL(), err)
				failed++
			}
		}
	}
	overhead := 1 - traced.rps/rps
	fmt.Printf("workload %s seed %d, in-process closed loop of %d: untraced %.1f req/s, traced %.1f req/s (%d requests, %d analysed incl. warm-up)\n",
		w.Name, w.Seed, clients, rps, traced.rps, traced.n, ls.requests)
	fmt.Printf("layer table (self time = span minus the union of its children):\n")
	ls.writeTable(os.Stdout)
	ms := ls.perLayer()
	ms = append(ms,
		metric{"service.http_us", httpUS, "us", httpN},
		metric{"trace.materialized", float64(p.runner.Traces().Generated()), "count", 1},
		metric{"obs.tracing_overhead_share", overhead, "share", traced.n},
	)
	fmt.Printf("tracing overhead %.2f%% of untraced throughput; unattributed %.2f%% of traced request time\n",
		100*overhead, 100*ratio(ls.rootSelf, ls.rootDur))
	return result{Correct: failed == 0, Attempted: traced.n, Failed: failed, Metrics: ms}, nil
}

// keptTrace is one traced request kept for analysis, with its answer
// while the body budget lasts.
type keptTrace struct {
	req    Request
	tracer *obs.Tracer
	body   []byte
}

type inProcessRun struct {
	rps    float64
	n      int
	failed int
	kept   []keptTrace
}

// inProcess warms a fresh pipeline with the workload's warm-up
// requests and drives the stream through it from the same closed loop
// the HTTP run uses, optionally tracing every request.
func inProcess(w *Workload, seconds float64, traced bool) (inProcessRun, *pipeline, error) {
	p := newPipeline()
	var run inProcessRun
	var mu sync.Mutex
	spans, bodyBytes := 0, 0
	serve := func(req Request) ([]byte, error) {
		ctx := context.Background()
		var tr *obs.Tracer
		if traced {
			tr = obs.NewTracer()
			ctx = obs.WithTracer(ctx, tr)
		}
		body, err := p.serve(ctx, req)
		if traced {
			mu.Lock()
			if spans < tracedSpanBudget {
				spans += tr.Len()
				k := keptTrace{req: req, tracer: tr}
				if bodyBytes < 64<<20 {
					bodyBytes += len(body)
					k.body = body
				}
				run.kept = append(run.kept, k)
			}
			mu.Unlock()
		}
		return body, err
	}
	var warmErr error
	var errOnce sync.Once
	parallel(len(w.Warmup), func(i int) {
		if _, err := serve(w.Warmup[i]); err != nil {
			errOnce.Do(func() { warmErr = fmt.Errorf("warm-up %s: %w", w.Warmup[i].Path, err) })
		}
	})
	if warmErr != nil {
		return run, nil, warmErr
	}
	timed := closedLoop(w, seconds, func(req Request) (int, [sha256.Size]byte, error) {
		_, err := serve(req)
		if err != nil {
			return http.StatusUnprocessableEntity, [sha256.Size]byte{}, err
		}
		return http.StatusOK, [sha256.Size]byte{}, nil
	})
	run.n = len(timed.outs)
	run.rps, _, _, _ = timed.stats()
	for _, o := range timed.outs {
		if o.err != nil {
			run.failed++
		}
	}
	return run, p, nil
}

// httpOverhead measures the fixed cost tradeoffd's HTTP layer adds to
// a memo hit: the mean round trip of the first requests of the stream
// through service.Server.Handler(), once cached, minus the mean of the
// same hits through the in-process pipeline (decode, limits, key and
// memo lookup).
func httpOverhead(w *Workload) (float64, int, error) {
	reqs := make([]Request, 8)
	for i := range reqs {
		reqs[i] = w.At(i)
	}
	h := service.New(service.Options{}).Handler()
	viaHandler := func(req Request) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req.URL(), bytes.NewReader(req.Body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler answered %s with %d", req.URL(), rec.Code)
		}
		return nil
	}
	p := newPipeline()
	viaPipeline := func(req Request) error {
		_, err := p.serve(context.Background(), req)
		return err
	}
	var means [2]float64
	var counts [2]int
	for k, do := range []func(Request) error{viaHandler, viaPipeline} {
		for _, req := range reqs {
			if err := do(req); err != nil {
				return 0, 0, err
			}
		}
		n := 0
		start := time.Now()
		for time.Since(start) < 500*time.Millisecond {
			if err := do(reqs[n%len(reqs)]); err != nil {
				return 0, 0, err
			}
			n++
		}
		means[k] = float64(time.Since(start)) / 1e3 / float64(n)
		counts[k] = n
	}
	return means[0] - means[1], counts[0], nil
}
