package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strings"

	"tradeoff/internal/core"
	"tradeoff/internal/engine"
	"tradeoff/internal/model"
	"tradeoff/internal/mrc"
	"tradeoff/internal/obs"
	"tradeoff/internal/service"
	"tradeoff/internal/simjob"
	"tradeoff/internal/sweep"
)

// pipeline answers requests in-process through the same public calls
// tradeoffd's endpoints make (decode → limits → canonical key → memo →
// run → encode) with the server's default bounds. Each stage runs
// under one of the benchmark's own spans; when the context carries an
// obs.Tracer the program's memo, sweep_point, optimize_point, sim_job
// and mrc_pass spans nest underneath.
type pipeline struct {
	memo   *engine.Memo[response]
	curves *mrc.CurveCache
	models *model.Cache
	runner *simjob.Runner
	stats  *obs.EngineStats
}

// response is one encoded answer, as the server memoizes it.
type response struct {
	contentType string
	body        []byte
}

// newPipeline mirrors service.New's defaults: a 256-entry, 32 MiB
// response memo, a 64-curve/64 MiB curve cache, a 64-entry/16 MiB
// model cache, one simjob.Runner, and a worker pool of every CPU.
func newPipeline() *pipeline {
	return &pipeline{
		memo: engine.NewMemo(256, 32<<20, func(r response) int64 {
			return int64(len(r.body) + len(r.contentType))
		}),
		curves: mrc.NewCurveCache(64, 64<<20),
		models: model.NewCache(64, 16<<20),
		runner: simjob.NewRunner(),
		stats:  obs.NewEngineStats(),
	}
}

func (p *pipeline) caches() sweep.Caches {
	return sweep.Caches{Curves: p.curves, Models: p.models, Measure: p.runner.MeasureHierarchy}
}

// stage runs fn under a span named name.
func stage(ctx context.Context, name string, fn func(context.Context) error) error {
	ctx, span := obs.StartSpan(ctx, name)
	defer span.End()
	return fn(ctx)
}

// serve answers one request. The error is the one the server would
// report as a non-200 status.
func (p *pipeline) serve(ctx context.Context, req Request) ([]byte, error) {
	ctx = obs.WithEngineStats(ctx, p.stats)
	ctx, span := obs.StartSpan(ctx, "service.request")
	defer span.End()
	span.SetArg("kind", req.Kind)
	format := "json"
	if req.CSV {
		format = "csv"
	}
	var ep endpointFuncs
	var err error
	switch req.Path {
	case "/v1/sweep":
		ep, err = p.sweepEndpoint(ctx, req)
	case "/v1/optimize":
		ep, err = p.optimizeEndpoint(ctx, req)
	case "/v1/stall":
		ep, err = p.stallEndpoint(ctx, req)
	case "/v1/tradeoff":
		ep, err = tradeoffEndpoint(ctx, req)
		format = "json"
	default:
		err = fmt.Errorf("no endpoint %s", req.Path)
	}
	if err != nil {
		return nil, err
	}
	var canon []byte
	if err := stage(ctx, "service.key", func(context.Context) error {
		canon, err = ep.key()
		return err
	}); err != nil {
		return nil, err
	}
	key := req.Path + "|" + format + "|" + string(canon)
	var resp response
	err = stage(ctx, "service.memo", func(ctx context.Context) error {
		resp, _, err = p.memo.Do(ctx, key, func(ctx context.Context) (response, error) {
			var out response
			err := stage(ctx, "service.run", ep.run)
			if err != nil {
				return out, err
			}
			err = stage(ctx, "service.encode", func(context.Context) error {
				out, err = ep.encode(format)
				return err
			})
			return out, err
		})
		return err
	})
	return resp.body, err
}

// endpointFuncs is one decoded request's remaining stages.
type endpointFuncs struct {
	key    func() ([]byte, error)
	run    func(context.Context) error
	encode func(format string) (response, error)
}

// decode runs the decode and limits stages under their spans.
func decode[T any](ctx context.Context, body []byte, parse func([]byte) (T, error), limits func(*T) error) (T, error) {
	var v T
	err := stage(ctx, "service.decode", func(context.Context) error {
		var err error
		v, err = parse(body)
		return err
	})
	if err != nil {
		return v, err
	}
	err = stage(ctx, "service.limits", func(context.Context) error { return limits(&v) })
	return v, err
}

func jsonResponse(v any) (response, error) {
	b, err := json.Marshal(v)
	return response{contentType: "application/json", body: append(b, '\n')}, err
}

func csvResponse(write func(*bytes.Buffer) error) (response, error) {
	var buf bytes.Buffer
	err := write(&buf)
	return response{contentType: "text/csv; charset=utf-8", body: buf.Bytes()}, err
}

// errorBound is the analytic tier's committed error for a sweep whose
// effective hit source is "an:<workload>", else 0 (omitted).
func errorBound(ds []sweep.Design) float64 {
	if len(ds) > 0 {
		if _, w, ok := sweep.SourceWorkload(ds[0].HitSource); ok && ds[0].HitSource == "an:"+w {
			return model.ErrorBound(w)
		}
	}
	return 0
}

// prefetchCurves looks up every curve a sweep over cfg will read, each
// under its own span, so curve and model cache traffic is timed at the
// cache's public Get; the sweep's own lookups then hit. Flat "sim:"
// sweeps stream their trace inside each sweep_point and have nothing
// to prefetch.
func (p *pipeline) prefetchCurves(ctx context.Context, cfg sweep.Config) error {
	source, err := cfg.EffectiveHitSource()
	if err != nil {
		return err
	}
	prefix, name, ok := sweep.SourceWorkload(source)
	if !ok {
		return nil
	}
	lines := map[int]bool{}
	for _, l := range cfg.LineBytes {
		lines[l] = true
	}
	for _, lv := range cfg.Levels {
		for _, l := range lv.LineBytes {
			lines[l] = true
		}
	}
	for _, line := range sortedKeys(lines) {
		switch prefix {
		case "mrc:", "mrc~:":
			spec := mrc.Spec{Workload: name, Seed: cfg.Seed, Refs: cfg.SimRefs, Sampled: prefix == "mrc~:", LineSize: line}
			if spec.Sampled {
				spec.Sampler = mrc.SamplerConfig{Rate: cfg.MRCRate, Budget: cfg.MRCBudget}
			}
			err = stage(ctx, "mrc.get", func(ctx context.Context) error {
				_, hit, err := p.curves.Get(ctx, spec)
				obs.CurrentSpan(ctx).SetArg("hit", hit)
				return err
			})
		case "an:":
			spec := model.Spec{Workload: name, Seed: cfg.Seed, Refs: cfg.SimRefs, LineSize: line}
			err = stage(ctx, "model.get", func(ctx context.Context) error {
				_, hit, err := p.models.Get(ctx, spec)
				obs.CurrentSpan(ctx).SetArg("hit", hit)
				return err
			})
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// prefetchTrace materializes one trace in the runner's TraceCache
// under a span, ahead of the replays that read it.
func (p *pipeline) prefetchTrace(ctx context.Context, spec simjob.TraceSpec) error {
	return stage(ctx, "simjob.trace_get", func(ctx context.Context) error {
		obs.CurrentSpan(ctx).SetArg("refs", spec.Refs)
		before := p.runner.Traces().Generated()
		_, err := p.runner.Traces().Get(ctx, spec)
		obs.CurrentSpan(ctx).SetArg("generated", p.runner.Traces().Generated()-before)
		return err
	})
}

func sortedKeys(m map[int]bool) []int {
	out := make([]int, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Ints(out)
	return out
}

func (p *pipeline) sweepEndpoint(ctx context.Context, req Request) (endpointFuncs, error) {
	cfg, err := decode(ctx, req.Body, sweep.ParseConfig, func(c *sweep.Config) error { return c.CheckLimits(sweep.DefaultLimits) })
	if err != nil {
		return endpointFuncs{}, err
	}
	var ds []sweep.Design
	return endpointFuncs{
		key: cfg.Canonical,
		run: func(ctx context.Context) error {
			if err := p.prefetchCurves(ctx, cfg); err != nil {
				return err
			}
			return stage(ctx, "sweep.run", func(ctx context.Context) error {
				ds, err = sweep.RunCaches(ctx, cfg, 0, p.caches())
				return err
			})
		},
		encode: func(format string) (response, error) {
			if format == "csv" {
				return csvResponse(func(b *bytes.Buffer) error { return sweep.WriteCSV(b, ds) })
			}
			return jsonResponse(service.SweepResponse{Count: len(ds), ParetoCount: sweep.ParetoCount(ds), ErrorBound: errorBound(ds), Designs: ds})
		},
	}, nil
}

func (p *pipeline) optimizeEndpoint(ctx context.Context, req Request) (endpointFuncs, error) {
	cfg, err := decode(ctx, req.Body, sweep.ParseOptimizeConfig, func(c *sweep.OptimizeConfig) error { return c.CheckLimits(sweep.DefaultLimits) })
	if err != nil {
		return endpointFuncs{}, err
	}
	var res sweep.OptimizeResult
	return endpointFuncs{
		key: cfg.Canonical,
		run: func(ctx context.Context) error {
			if err := p.prefetchCurves(ctx, cfg.Config); err != nil {
				return err
			}
			return stage(ctx, "sweep.optimize", func(ctx context.Context) error {
				res, err = sweep.OptimizeCaches(ctx, cfg, 0, p.caches())
				return err
			})
		},
		encode: func(format string) (response, error) {
			if format == "csv" {
				return csvResponse(func(b *bytes.Buffer) error { return sweep.WriteOptimizeCSV(b, res.Designs) })
			}
			return jsonResponse(service.OptimizeResponse{
				Total: res.Total, Feasible: res.Feasible, ParetoCount: sweep.ParetoCount(res.Designs),
				ErrorBound: errorBound(res.Designs), Designs: res.Designs,
			})
		},
	}, nil
}

func (p *pipeline) stallEndpoint(ctx context.Context, req Request) (endpointFuncs, error) {
	g, err := decode(ctx, req.Body, simjob.ParseGrid, func(g *simjob.Grid) error { return g.CheckLimits(simjob.DefaultLimits) })
	if err != nil {
		return endpointFuncs{}, err
	}
	var ps []simjob.PointResult
	return endpointFuncs{
		key: g.Canonical,
		run: func(ctx context.Context) error {
			if g.Mode == sweep.ModeExact {
				for _, prog := range g.Programs {
					if err := p.prefetchTrace(ctx, simjob.TraceSpec{Program: prog, Seed: g.Seed, Refs: g.Refs}); err != nil {
						return err
					}
				}
			}
			return stage(ctx, "simjob.grid", func(ctx context.Context) error {
				obs.CurrentSpan(ctx).SetArg("mode", g.Mode)
				ps, err = p.runner.RunGrid(ctx, g, 0)
				return err
			})
		},
		encode: func(format string) (response, error) {
			if format == "csv" {
				return csvResponse(func(b *bytes.Buffer) error { return simjob.WriteCSV(b, ps) })
			}
			resp := service.StallResponse{Count: len(ps), Points: ps}
			for _, pt := range ps {
				if pt.Source == "an:"+pt.Program {
					if resp.ErrorBounds == nil {
						resp.ErrorBounds = make(map[string]float64)
					}
					resp.ErrorBounds[pt.Program] = model.ErrorBound(pt.Program)
				}
			}
			return jsonResponse(resp)
		},
	}, nil
}

// tradeoffEndpoint prices one feature the way POST /v1/tradeoff does
// for the payloads the generator emits (single issue, no profile).
func tradeoffEndpoint(ctx context.Context, req Request) (endpointFuncs, error) {
	parse := func(body []byte) (service.TradeoffRequest, error) {
		var t service.TradeoffRequest
		if err := json.Unmarshal(body, &t); err != nil {
			return t, fmt.Errorf("decoding request: %w", err)
		}
		setTradeoffDefaults(&t)
		return t, nil
	}
	t, err := decode(ctx, req.Body, parse, func(*service.TradeoffRequest) error { return nil })
	if err != nil {
		return endpointFuncs{}, err
	}
	var resp service.TradeoffResponse
	return endpointFuncs{
		key: func() ([]byte, error) { return json.Marshal(t) },
		run: func(ctx context.Context) error {
			return stage(ctx, "core.tradeoff", func(context.Context) error {
				resp, err = evalTradeoff(t)
				return err
			})
		},
		encode: func(string) (response, error) { return jsonResponse(resp) },
	}, nil
}

// setTradeoffDefaults fills omitted fields with the tradeoff CLI's
// defaults, as the server does before keying and evaluating.
func setTradeoffDefaults(t *service.TradeoffRequest) {
	def := func(p **float64, v float64) {
		if *p == nil {
			*p = &v
		}
	}
	def(&t.HitRatio, 0.95)
	def(&t.Alpha, 0.5)
	def(&t.L, 32)
	def(&t.D, 4)
	def(&t.BetaM, 10)
	def(&t.Phi, 1)
	def(&t.Q, 2)
	def(&t.Issue, 1)
}

func evalTradeoff(t service.TradeoffRequest) (service.TradeoffResponse, error) {
	if *t.Issue != 1 || t.Profile != nil {
		return service.TradeoffResponse{}, fmt.Errorf("benchmark pipeline prices single-issue requests without a profile only")
	}
	var spec core.FeatureSpec
	switch t.Feature {
	case "bus":
		spec = core.FeatureSpec{Feature: core.FeatureDoubleBus}
	case "stall":
		spec = core.FeatureSpec{Feature: core.FeaturePartialStall, Phi: *t.Phi}
	case "wbuf":
		spec = core.FeatureSpec{Feature: core.FeatureWriteBuffers}
	case "pipe":
		spec = core.FeatureSpec{Feature: core.FeaturePipelinedMemory, Q: *t.Q}
	default:
		return service.TradeoffResponse{}, fmt.Errorf("unknown feature %q", t.Feature)
	}
	tr, err := core.FeatureTradeoff(spec, *t.HitRatio, *t.Alpha, *t.L, *t.D, *t.BetaM)
	if err != nil {
		return service.TradeoffResponse{}, err
	}
	resp := service.TradeoffResponse{
		Feature: tr.Feature.String(), MissCountRatio: tr.R, S: tr.S, BaseHitRatio: tr.BaseHR,
		DeltaHR: tr.DeltaHR, EquivalentHitRatio: tr.NewHR, Valid: tr.Valid,
	}
	if spec.Feature == core.FeaturePipelinedMemory {
		resp.BetaP = core.BetaP(*t.BetaM, *t.Q, *t.L, *t.D)
		if x, err := core.PipelineCrossover(*t.Q, *t.L, *t.D); err == nil && !math.IsInf(x, 0) {
			resp.CrossoverBetaM = x
		}
	}
	return resp, nil
}

// checkInvariants verifies what the generator knows about an answer:
// the design count equals the grid size, at least one design is
// Pareto-efficient, every hit ratio lies in [0, 1], and an analytic
// JSON answer carries its error bound.
func checkInvariants(req Request, body []byte) error {
	if req.CSV {
		return checkCSV(req, body)
	}
	var doc struct {
		Count       *int               `json:"count"`
		Total       *int               `json:"total"`
		Feasible    int                `json:"feasible"`
		ParetoCount int                `json:"pareto_count"`
		ErrorBound  float64            `json:"error_bound"`
		ErrorBounds map[string]float64 `json:"error_bounds"`
		Designs     []json.RawMessage  `json:"designs"`
		Points      []json.RawMessage  `json:"points"`
		DeltaHR     *float64           `json:"delta_hr"`
		Equivalent  float64            `json:"equivalent_hit_ratio"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("%s: decoding answer: %w", req.Kind, err)
	}
	switch req.Path {
	case "/v1/tradeoff":
		if doc.DeltaHR == nil || math.IsNaN(*doc.DeltaHR) {
			return fmt.Errorf("tradeoff: no delta_hr")
		}
		return nil
	case "/v1/stall":
		if doc.Count == nil || *doc.Count != req.Points || len(doc.Points) != req.Points {
			return fmt.Errorf("stall: %d points, want %d", len(doc.Points), req.Points)
		}
		if req.Analytic && len(doc.ErrorBounds) == 0 {
			return fmt.Errorf("stall: analytic answer without error_bounds")
		}
		return nil
	}
	designs := len(doc.Designs)
	switch req.Path {
	case "/v1/sweep":
		if doc.Count == nil || *doc.Count != req.Points || designs != req.Points {
			return fmt.Errorf("sweep: %d designs, want %d", designs, req.Points)
		}
	case "/v1/optimize":
		if doc.Total == nil || *doc.Total != req.Points || designs != doc.Feasible {
			return fmt.Errorf("optimize: total %v with %d designs of %d feasible, want total %d", doc.Total, designs, doc.Feasible, req.Points)
		}
	}
	if doc.ParetoCount < 1 {
		return fmt.Errorf("%s: pareto_count %d", req.Kind, doc.ParetoCount)
	}
	if req.Analytic != (doc.ErrorBound > 0) {
		return fmt.Errorf("%s: error_bound %g on an answer with analytic=%v", req.Kind, doc.ErrorBound, req.Analytic)
	}
	for _, raw := range doc.Designs {
		var d struct {
			HitRatio float64 `json:"hit_ratio"`
			Global   float64 `json:"global_hit_ratio"`
			Levels   []struct {
				Local float64 `json:"local_hit_ratio"`
			} `json:"levels"`
		}
		if err := json.Unmarshal(raw, &d); err != nil {
			return err
		}
		ratios := []float64{d.HitRatio, d.Global}
		for _, l := range d.Levels {
			ratios = append(ratios, l.Local)
		}
		for _, hr := range ratios {
			if !(hr >= 0 && hr <= 1) {
				return fmt.Errorf("%s: hit ratio %g outside [0, 1]", req.Kind, hr)
			}
		}
	}
	return nil
}

// checkCSV applies the invariants to a CSV answer: one row per design
// point, some row Pareto-efficient, hit ratios in [0, 1].
func checkCSV(req Request, body []byte) error {
	lines := strings.Split(strings.TrimRight(string(body), "\n"), "\n")
	header := strings.Split(lines[0], ",")
	col := func(name string) int {
		for i, h := range header {
			if h == name {
				return i
			}
		}
		return -1
	}
	rows := lines[1:]
	if req.Path != "/v1/optimize" && len(rows) != req.Points {
		return fmt.Errorf("%s csv: %d rows, want %d", req.Kind, len(rows), req.Points)
	}
	if req.Path == "/v1/stall" {
		return nil
	}
	if len(rows) == 0 || len(rows) > req.Points {
		return fmt.Errorf("%s csv: %d rows of %d points", req.Kind, len(rows), req.Points)
	}
	hr, global, pareto := col("hit_ratio"), col("global_hit_ratio"), col("pareto")
	paretos := 0
	for _, row := range rows {
		cells := strings.Split(row, ",")
		if len(cells) != len(header) {
			return fmt.Errorf("%s csv: row %q has %d cells, want %d", req.Kind, row, len(cells), len(header))
		}
		for _, c := range []int{hr, global} {
			if c < 0 {
				continue
			}
			var v float64
			if _, err := fmt.Sscan(cells[c], &v); err != nil || v < 0 || v > 1 {
				return fmt.Errorf("%s csv: hit ratio %q outside [0, 1]", req.Kind, cells[c])
			}
		}
		if cells[pareto] == "true" {
			paretos++
		}
	}
	if paretos < 1 {
		return fmt.Errorf("%s csv: no Pareto-efficient row", req.Kind)
	}
	return nil
}
