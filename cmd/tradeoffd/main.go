// Command tradeoffd serves the unified tradeoff methodology over
// HTTP: single-point feature pricing (POST /v1/tradeoff), full
// design-space sweeps (POST /v1/sweep, JSON or CSV), trace-driven
// stall sweeps (POST /v1/stall, JSON or CSV), cost-constrained
// hierarchy searches (POST /v1/optimize, JSON or CSV: every depth
// prefix of the configured level axes competes under an area_budget
// and optional power_budget, returning the budget-feasible designs
// with the delay/area/pins Pareto frontier flagged), a liveness probe
// (GET /healthz) and service metrics (GET /metrics, JSON or
// Prometheus text, both rendered from one declaration of each series).
//
// Usage:
//
//	tradeoffd [-addr :8080] [-workers 0] [-cache 256] [-cache-mb 32] [-drain 10s]
//	          [-log-level info] [-pprof] [-xval 0]
//	          [-history-interval 10s] [-history-window 1h] [-slo ""]
//
// Sweeps run on the shared engine.Map worker pool and stall grids on
// the internal/simjob replay pool, which materializes each workload
// trace once and shares it across requests; identical requests are
// answered from an LRU bounded by entries and bytes, and concurrent
// identical requests share one evaluation. SIGINT/SIGTERM triggers a graceful
// shutdown: the listener closes immediately, in-flight requests get
// the drain timeout to finish, and a client that disconnects mid-sweep
// cancels its workers via the request context.
//
// Every request gets a correlation ID (honored from X-Request-ID when
// well-formed, generated otherwise), echoed in the response and in the
// key=value access-log line on stderr; -log-level selects verbosity
// (debug, info, warn, error). -pprof exposes net/http/pprof under
// /debug/pprof/ — off by default since the profiles reveal internals.
//
// -xval enables the continuous cross-validation loop: every interval
// one (workload, line size) pair from the rotation is re-validated —
// analytic model vs exact MRC vs a set-associative replay — and the
// resulting error gauges are published on /metrics (JSON "xval",
// Prometheus tradeoffd_xval_* with ?format=prom). Off by default
// (interval 0) since it burns a few milliseconds of CPU per pass.
//
// The always-on observability tier needs no flags: the flight
// recorder keeps the newest 8192 completed spans (dump a window as
// Chrome trace_event JSON with GET /debug/flight?last=30s), tail-based
// sampling pins requests slower than 8 × their endpoint's rolling p99
// (the newest 512 spans of each under GET /debug/slow, the newest 16
// requests retained), and every /metrics series plus the Go runtime
// gauges is snapshotted each -history-interval into in-memory rings
// holding -history-window (served by GET
// /metrics/history?series=...&window=...; live sparkline dashboard at
// GET /debug/dash). -slo attaches per-endpoint objectives, e.g.
//
//	-slo 'sweep:p99<250ms,err<1%;stall:p99<2s'
//
// which publishes rolling 5m/1h error-budget burn rates on /metrics
// (JSON "slo", Prometheus tradeoffd_slo_*) and logs a structured
// warning whenever an objective is burning.
//
// Examples:
//
//	curl -s localhost:8080/healthz
//	curl -s -X POST localhost:8080/v1/tradeoff -d '{"feature":"bus","hit_ratio":0.95}'
//	go run ./cmd/sweep -example | curl -s -X POST localhost:8080/v1/sweep?format=csv -d @-
//	curl -s -X POST 'localhost:8080/v1/stall?format=csv' -d '{"programs":["nasa7"],"beta_m":[4,10]}'
//	curl -s -X POST localhost:8080/v1/optimize -d '{"cache_kb":[4,8],"line_bytes":[32],
//	  "bus_bits":[32,64],"latency_ns":360,"transfer_ns":60,"cpu_ns":30,
//	  "levels":[{"cache_kb":[64],"latency_ns":90}],"area_budget":2e7}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"tradeoff/internal/obs"
	"tradeoff/internal/service"
)

// config is the parsed flag set run() serves from.
type config struct {
	addr  string
	drain time.Duration
	level string
	xval  time.Duration
	slo   string
	opts  service.Options // Logger filled by run
}

func main() {
	var (
		cfg     config
		cacheMB int64
	)
	flag.StringVar(&cfg.addr, "addr", ":8080", "listen address")
	flag.IntVar(&cfg.opts.Workers, "workers", 0, "sweep worker pool size (0 = all CPUs)")
	flag.IntVar(&cfg.opts.CacheEntries, "cache", 256, "response LRU capacity (entries)")
	flag.Int64Var(&cacheMB, "cache-mb", 32, "response LRU capacity (MiB of response bytes)")
	flag.DurationVar(&cfg.drain, "drain", 10*time.Second, "graceful-shutdown drain timeout")
	flag.StringVar(&cfg.level, "log-level", "info", "log verbosity: debug, info, warn, error")
	flag.BoolVar(&cfg.opts.Pprof, "pprof", false, "expose net/http/pprof under /debug/pprof/")
	flag.DurationVar(&cfg.xval, "xval", 0, "model cross-validation interval (0 = off)")
	flag.DurationVar(&cfg.opts.HistoryInterval, "history-interval", 0, "metrics-history snapshot cadence (0 = default 10s)")
	flag.DurationVar(&cfg.opts.HistoryWindow, "history-window", 0, "metrics-history retention per series (0 = default 1h)")
	flag.StringVar(&cfg.slo, "slo", "", "per-endpoint objectives, e.g. 'sweep:p99<250ms,err<1%;stall:p99<2s'")
	flag.Parse()
	cfg.opts.CacheBytes = cacheMB << 20
	if err := run(cfg); err != nil {
		fmt.Fprintln(os.Stderr, "tradeoffd:", err)
		os.Exit(1)
	}
}

func run(cfg config) error {
	lv, err := obs.ParseLevel(cfg.level)
	if err != nil {
		return err
	}
	if cfg.slo != "" {
		if cfg.opts.SLOs, err = obs.ParseSLOs(cfg.slo); err != nil {
			return err
		}
	}
	logger := obs.NewLogger(os.Stderr, lv)
	cfg.opts.Logger = logger
	svc := service.New(cfg.opts)
	srv := &http.Server{
		Addr:              cfg.addr,
		Handler:           svc.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	// The listener goroutine starts before the signal context exists:
	// its lifetime is managed by srv.Shutdown below, not by a ctx.
	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", cfg.addr)
		errc <- srv.ListenAndServe()
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The metrics-history scheduler always runs: the rings are
	// fixed-size, a tick costs microseconds, and /metrics/history,
	// /debug/dash and the SLO burn warnings all read from it.
	go svc.RunHistory(ctx)

	if cfg.xval > 0 {
		logger.Info("cross-validation loop on", "interval", cfg.xval.String())
		go svc.RunXVal(ctx, cfg.xval)
	}

	select {
	case err := <-errc:
		return err // ListenAndServe failed before any signal
	case <-ctx.Done():
	}

	logger.Info("shutting down", "drain", cfg.drain.String())
	// The signal context is already canceled here; strip its
	// cancellation but keep its values for the drain deadline.
	drainCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), cfg.drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain timeout exceeded: %w", err)
	}
	if err := <-errc; !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	return nil
}
