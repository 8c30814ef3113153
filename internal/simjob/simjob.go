// Package simjob is the parallel orchestrator for trace-driven stall
// measurements — the simulation-side sibling of the analytic sweep
// engine in internal/sweep.
//
// A Runner reads each named workload trace from its trace.Cache — the
// byte-bounded cache every simulation tier shares — as one read-only
// []trace.Ref, fans (feature × cache × memory × write-buffer) design
// points out across the shared engine.Map pool, and returns results
// in enumeration order, so parallel output is byte-identical to a
// serial replay.
// Optionally it keeps one warmed cache per (trace, geometry) and
// clones it per measurement, so cold-start misses are paid once
// instead of per design point.
//
// The consumers are cmd/figures and cmd/cachesim (via their -workers
// flags) and the tradeoffd service's POST /v1/stall endpoint.
package simjob

import (
	"context"
	"fmt"

	"tradeoff/internal/cache"
	"tradeoff/internal/engine"
	"tradeoff/internal/model"
	"tradeoff/internal/obs"
	"tradeoff/internal/stall"
	"tradeoff/internal/sweep"
	"tradeoff/internal/trace"
)

// TraceSpec names a synthetic workload trace (see trace.Named).
type TraceSpec = trace.Named

// Job is one design point to measure: a workload trace replayed under
// one stall configuration.
type Job struct {
	Trace TraceSpec
	Cfg   stall.Config
}

// Options tunes a Run.
type Options struct {
	// Workers bounds the pool; <= 0 selects runtime.NumCPU().
	Workers int

	// Warm replays each trace once through a fresh cache per distinct
	// (trace, cache geometry), memoizes that warmed state, and clones
	// it for every measurement sharing the geometry. Results then
	// exclude cold-start misses, so they differ from (but are exactly
	// as deterministic as) the default cold replay.
	Warm bool
}

// Runner owns the shared memoization state — materialized traces,
// warmed caches and analytic curves — across any number of Run calls.
// A single Runner is safe for concurrent use; the tradeoffd service
// holds one for its whole lifetime and wires its trace and model
// caches into the sweep engines, so both survive across requests and
// endpoints.
type Runner struct {
	traces *trace.Cache
	warm   *engine.Memo[*cache.Cache]
	models *model.Cache // analytic curves, for the grid and the sweeps alike
}

// NewRunner returns a Runner with empty caches; its trace cache is a
// fresh trace.NewCache.
func NewRunner() *Runner {
	return &Runner{
		traces: trace.NewCache(),
		warm:   engine.NewMemo[*cache.Cache](0, 0, nil),
		models: model.NewCache(64, 16<<20),
	}
}

// Traces exposes the runner's trace cache, for the other simulation
// tiers to share and for metrics and tests.
func (r *Runner) Traces() *trace.Cache { return r.traces }

// Models exposes the runner's analytic curve cache, for the sweep
// engines' analytic tier to share.
func (r *Runner) Models() *model.Cache { return r.models }

// warmClone returns a clone of the warmed cache for (spec, geometry),
// warming it on first use by streaming the trace through a fresh cache
// and resetting its statistics. Concurrent first requests share one
// warm-up via the memo's singleflight.
func (r *Runner) warmClone(ctx context.Context, spec TraceSpec, cc cache.Config, refs []trace.Ref) (*cache.Cache, error) {
	key := fmt.Sprintf("%+v|%+v", spec, cc)
	c, _, err := r.warm.Do(ctx, key, func(context.Context) (*cache.Cache, error) {
		c, err := cache.New(cc)
		if err != nil {
			return nil, err
		}
		for _, ref := range refs {
			c.Access(ref.Addr, ref.Write)
		}
		c.ResetStats()
		return c, nil
	})
	if err != nil {
		return nil, err
	}
	return c.Clone(), nil
}

// measure replays one job, through a warmed clone when opts.Warm.
func (r *Runner) measure(ctx context.Context, job Job, opts Options) (stall.Result, error) {
	refs, err := r.traces.Get(ctx, job.Trace)
	if err != nil {
		return stall.Result{}, err
	}
	if opts.Warm {
		c, err := r.warmClone(ctx, job.Trace, job.Cfg.Cache, refs)
		if err != nil {
			return stall.Result{}, err
		}
		return stall.RunWarm(job.Cfg, c, refs)
	}
	return stall.Run(job.Cfg, refs)
}

// MeasureHierarchy replays refs references of the named workload
// through an N-level cache.Hierarchy built from levels (top first) and
// returns its stats, reading the trace from the runner's trace cache.
// It is a sweep.MeasureFunc, for callers that wire a runner into
// sweep.Caches.Measure.
func (r *Runner) MeasureHierarchy(ctx context.Context, workload string, seed uint64, refs int, levels []cache.Config) (cache.HierarchyStats, error) {
	return sweep.MeasureHierarchy(ctx, r.traces, workload, seed, refs, levels)
}

// Run measures every job on the shared engine.Map pool and returns
// results indexed like jobs — deterministic regardless of worker count
// or completion order. The run holds every trace it fetches
// (trace.WithHold), so each is materialized at most once per run. The
// context cancels in-flight work: a disconnected HTTP client or an
// interrupted CLI stops the pool early with ctx.Err().
func (r *Runner) Run(ctx context.Context, jobs []Job, opts Options) ([]stall.Result, error) {
	if len(jobs) == 0 {
		return nil, fmt.Errorf("simjob: no jobs")
	}
	ctx = obs.WithSpanName(trace.WithHold(ctx), "sim_job")
	return engine.Map(ctx, jobs, opts.Workers, func(ctx context.Context, job Job) (stall.Result, error) {
		if s := obs.CurrentSpan(ctx); s != nil {
			s.SetArg("program", job.Trace.Program)
			s.SetArg("feature", job.Cfg.Feature.String())
		}
		return r.measure(ctx, job, opts)
	})
}

// RunRefs measures one caller-supplied trace under each configuration
// on the shared pool — the cmd/cachesim path, where the trace comes
// from a file or a one-off generator rather than a named program. The
// refs slice is shared read-only across workers.
func RunRefs(ctx context.Context, refs []trace.Ref, cfgs []stall.Config, workers int) ([]stall.Result, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("simjob: no configurations")
	}
	ctx = obs.WithSpanName(ctx, "sim_feature")
	return engine.Map(ctx, cfgs, workers, func(ctx context.Context, cfg stall.Config) (stall.Result, error) {
		if s := obs.CurrentSpan(ctx); s != nil {
			s.SetArg("feature", cfg.Feature.String())
		}
		return stall.Run(cfg, refs)
	})
}
