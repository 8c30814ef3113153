package model

import (
	"context"

	"tradeoff/internal/engine"
	"tradeoff/internal/mrc"
)

// Cache memoizes analytic curves per Spec, mirroring mrc.CurveCache:
// a sweep pays one closed-form construction per (workload, line size)
// and the tradeoffd service holds one cache for its lifetime, so
// steady-state model-tier queries never rebuild a curve at all.
// Construction is already microsecond-scale; the memo mainly buys
// singleflight under concurrent identical requests and a byte bound.
type Cache struct {
	memo *engine.Memo[*mrc.Curve]
}

// NewCache returns a Cache bounded by maxEntries curves and maxBytes
// of histogram memory (0 = unbounded for that dimension).
func NewCache(maxEntries int, maxBytes int64) *Cache {
	return &Cache{memo: engine.NewMemo(maxEntries, maxBytes, (*mrc.Curve).MemoryBytes)}
}

// Get returns the analytic curve for spec, building it on first use.
// The boolean reports whether the curve was shared (memo hit or
// joined flight) rather than built by this call.
func (c *Cache) Get(ctx context.Context, spec Spec) (*mrc.Curve, bool, error) {
	if err := spec.Validate(); err != nil {
		return nil, false, err
	}
	return c.memo.Do(ctx, spec.key(), func(context.Context) (*mrc.Curve, error) {
		return CurveFor(spec)
	})
}
