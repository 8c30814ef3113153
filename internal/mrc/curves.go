package mrc

import (
	"context"
	"fmt"

	"tradeoff/internal/engine"
	"tradeoff/internal/obs"
	"tradeoff/internal/trace"
)

// Spec identifies one miss-ratio curve: a named workload profiled at
// one line size for a bounded number of references, exactly or via
// SHARDS sampling. Equal specs yield equal curves, which is what makes
// the CurveCache memoization sound.
type Spec struct {
	Workload string // one of trace.Workloads()
	Seed     uint64 // workload generator seed
	Refs     int    // references to profile (must be positive)
	LineSize int    // block size in bytes (positive power of two)
	Sampled  bool   // SHARDS sampling instead of the exact profiler
	Sampler  SamplerConfig
}

// Validate reports specs outside the profiler's domain. The sampler
// config is only checked when Sampled is set.
func (s Spec) Validate() error {
	if unknown := trace.ValidWorkloads([]string{s.Workload}); len(unknown) > 0 {
		return fmt.Errorf("mrc: unknown workload %q (want one of %v)", s.Workload, trace.Workloads())
	}
	if s.Refs < 1 {
		return fmt.Errorf("mrc: spec refs %d, want >= 1", s.Refs)
	}
	if err := validLineSize(s.LineSize); err != nil {
		return err
	}
	if s.Sampled {
		return s.Sampler.Validate()
	}
	return nil
}

// key is the memoization key: every field that changes the curve.
func (s Spec) key() string {
	if s.Sampled {
		return fmt.Sprintf("%s|%d|%d|%d|~%g|%d",
			s.Workload, s.Seed, s.Refs, s.LineSize, s.Sampler.Rate, s.Sampler.Budget)
	}
	return fmt.Sprintf("%s|%d|%d|%d", s.Workload, s.Seed, s.Refs, s.LineSize)
}

// Profile performs the single trace pass the spec describes and
// returns its curve. The trace comes from traces (nil: materialized
// afresh unless the context holds it, see trace.WithHold) and is read
// before the "mrc_pass" span opens, so a -trace export counts exactly
// the passes paid for and times the profiling alone.
func (s Spec) Profile(ctx context.Context, traces *trace.Cache) (*Curve, error) {
	if err := s.Validate(); err != nil {
		return nil, err
	}
	refs, err := traces.Get(ctx, trace.Named{Program: s.Workload, Seed: s.Seed, Refs: s.Refs})
	if err != nil {
		return nil, err
	}
	_, span := obs.StartSpan(ctx, "mrc_pass")
	span.SetArg("workload", s.Workload)
	span.SetArg("line_size", s.LineSize)
	span.SetArg("refs", s.Refs)
	span.SetArg("sampled", s.Sampled)
	defer span.End()
	if s.Sampled {
		return ProfileSampledRefs(refs, s.LineSize, s.Sampler)
	}
	return ProfileRefs(refs, s.LineSize)
}

// CurveCache memoizes curves by Spec on an engine.Memo, so a sweep —
// or concurrent sweeps sharing one cache — pays one trace pass per
// distinct (workload, line size) spec, with singleflight collapsing
// concurrent requests for the same spec. The passes read their traces
// from one trace.Cache, so the curves of one workload at K line sizes
// materialize its trace once.
type CurveCache struct {
	memo   *engine.Memo[*Curve]
	traces *trace.Cache
}

// NewCurveCache returns a cache bounded to maxEntries curves and
// maxBytes of resident curve data (bounds <= 0 are unlimited, matching
// engine.NewMemo), profiling traces from a private trace.NewCache.
//
//lint:ignore unusedexport e2ebench: the benchmark builds its curve cache with it
func NewCurveCache(maxEntries int, maxBytes int64) *CurveCache {
	return NewCurveCacheOn(trace.NewCache(), maxEntries, maxBytes)
}

// NewCurveCacheOn is NewCurveCache reading its traces from traces, so
// the curve tier shares one trace cache with the other simulation
// tiers. A nil traces shares traces only within a hold.
func NewCurveCacheOn(traces *trace.Cache, maxEntries int, maxBytes int64) *CurveCache {
	return &CurveCache{memo: engine.NewMemo(maxEntries, maxBytes, (*Curve).MemoryBytes), traces: traces}
}

// Get returns the curve for spec, profiling it on first use. The
// boolean reports whether the curve was shared (memo hit or joined
// flight) rather than profiled by this call.
func (cc *CurveCache) Get(ctx context.Context, spec Spec) (*Curve, bool, error) {
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	return cc.memo.Do(ctx, spec.key(), func(ctx context.Context) (*Curve, error) {
		return spec.Profile(ctx, cc.traces)
	})
}
