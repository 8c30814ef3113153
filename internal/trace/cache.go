package trace

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"unsafe"

	"tradeoff/internal/engine"
	"tradeoff/internal/obs"
)

// Named identifies one synthetic workload trace: which workload model
// (a program or "zipf"), which seed, how many references. Equal values
// materialize identical traces, which is what makes a Named a sound
// cache key.
type Named struct {
	Program string `json:"program"`
	Seed    uint64 `json:"seed"`
	Refs    int    `json:"refs"`
}

// Materialize generates the trace n names.
func (n Named) Materialize() ([]Ref, error) {
	src, err := NewWorkload(n.Program, n.Seed)
	if err != nil {
		return nil, err
	}
	return Collect(src, n.Refs), nil
}

// key is the Named's engine.Memo key.
func (n Named) key() string {
	return fmt.Sprintf("%s|%d|%d", n.Program, n.Seed, n.Refs)
}

// refBytes is the resident size of one Ref (24 bytes on 64-bit
// platforms: two words plus the padded size and write flag).
const refBytes = int64(unsafe.Sizeof(Ref{}))

// CacheBytes is the fixed budget of every trace Cache: 64 MiB, the
// same as the service's miss-ratio-curve cache. It holds a full-size
// cmd/figures program set (6 programs × 400k refs × 24 B ≈ 58 MB), or
// one trace of up to 2.79M references.
const CacheBytes = 64 << 20

// Cache is the one place a named workload trace is materialized. It
// memoizes traces by Named on an engine.Memo bounded to CacheBytes of
// resident references, evicting least-recently-used traces past the
// budget; a trace larger than the whole budget is returned to its
// caller but never cached. Singleflight makes concurrent first
// requests for one trace generate it once.
//
// Returned slices are shared read-only by every replay that uses
// them; callers must not mutate them.
//
// A nil *Cache is valid: it materializes on every fetch, so only a
// hold (WithHold) shares its traces.
type Cache struct {
	memo      *engine.Memo[[]Ref]
	generated atomic.Int64
}

// NewCache returns an empty trace cache bounded to CacheBytes.
func NewCache() *Cache {
	return &Cache{memo: engine.NewMemo(0, CacheBytes, func(refs []Ref) int64 {
		return int64(cap(refs)) * refBytes
	})}
}

// Get returns the trace n names, materializing it on first use. Under
// a hold (WithHold) the trace is fetched at most once per hold and
// then served from it for the rest of the run, whether or not the
// cache admitted it.
func (c *Cache) Get(ctx context.Context, n Named) ([]Ref, error) {
	if h, ok := ctx.Value(holdKey{}).(*hold); ok {
		return h.get(ctx, n, c.fetch)
	}
	return c.fetch(ctx, n)
}

// fetch serves n from the memo, materializing it on a miss.
func (c *Cache) fetch(ctx context.Context, n Named) ([]Ref, error) {
	if c == nil {
		return materialize(ctx, n)
	}
	refs, _, err := c.memo.Do(ctx, n.key(), func(ctx context.Context) ([]Ref, error) {
		c.generated.Add(1)
		return materialize(ctx, n)
	})
	return refs, err
}

// materialize generates n under a "trace_materialize" span.
func materialize(ctx context.Context, n Named) ([]Ref, error) {
	_, span := obs.StartSpan(ctx, "trace_materialize")
	span.SetArg("program", n.Program)
	span.SetArg("refs", n.Refs)
	defer span.End()
	return n.Materialize()
}

// Generated returns how many traces this cache has materialized — the
// hook the trace-count tests and the benchmark read. A nil cache
// reports 0.
//
//lint:ignore unusedexport e2ebench: the benchmark reports trace.materialized from it
func (c *Cache) Generated() int64 {
	if c == nil {
		return 0
	}
	return c.generated.Load()
}

// holdKey is the context key of a run's hold.
type holdKey struct{}

// hold is one run's set of fetched traces.
type hold struct {
	mu     sync.Mutex
	traces map[Named]*heldTrace
}

// heldTrace is one fetch; done closes when refs and err are final.
type heldTrace struct {
	done chan struct{}
	refs []Ref
	err  error
}

// WithHold returns a context under which every trace fetched through
// any Cache (a nil one included) is kept for the rest of the run: the
// first fetch of a Named goes to the cache, every later one — from any
// worker — is served from the hold. So a run generates each trace at
// most once even when the trace is larger than the cache budget, or
// is evicted mid-run by other requests' traces. The held traces are
// released with the context. A context that already carries a hold is
// returned unchanged, so nested runs share their caller's hold.
func WithHold(ctx context.Context) context.Context {
	if _, ok := ctx.Value(holdKey{}).(*hold); ok {
		return ctx
	}
	return context.WithValue(ctx, holdKey{}, &hold{traces: make(map[Named]*heldTrace)})
}

// get returns the held trace for n, fetching it on first use;
// concurrent callers wait for that one fetch. A failed fetch is not
// held, and a waiter whose fetcher was cancelled while the waiter is
// still live fetches again itself.
func (h *hold) get(ctx context.Context, n Named, fetch func(context.Context, Named) ([]Ref, error)) ([]Ref, error) {
	for {
		h.mu.Lock()
		t, ok := h.traces[n]
		if !ok {
			t = &heldTrace{done: make(chan struct{})}
			h.traces[n] = t
			h.mu.Unlock()
			refs, err := fetch(ctx, n)
			if err != nil {
				h.mu.Lock()
				delete(h.traces, n)
				h.mu.Unlock()
			}
			t.refs, t.err = refs, err
			close(t.done)
			return refs, err
		}
		h.mu.Unlock()
		select {
		case <-t.done:
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		if t.err != nil && ctx.Err() == nil &&
			(errors.Is(t.err, context.Canceled) || errors.Is(t.err, context.DeadlineExceeded)) {
			continue
		}
		return t.refs, t.err
	}
}
