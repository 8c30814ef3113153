package engine

import (
	"container/list"
	"context"
	"errors"
	"sync"

	"tradeoff/internal/obs"
)

// Memo is a string-keyed memoization cache with LRU eviction bounded
// by entry count and by total value bytes, plus singleflight: while
// one caller computes a key, concurrent callers for the same key wait
// for that one computation instead of repeating it.
//
// Values are cached only on success; a failed computation is retried
// by the next caller. If the computing caller is cancelled, a waiting
// caller whose own context is still live takes over the computation
// rather than inheriting the cancellation.
type Memo[V any] struct {
	maxEntries int
	maxBytes   int64
	size       func(V) int64

	mu      sync.Mutex
	bytes   int64
	order   *list.List // front = most recently used
	entries map[string]*list.Element
	flights map[string]*flight[V]
}

type memoEntry[V any] struct {
	key   string
	val   V
	bytes int64
}

// flight is one in-progress computation; done closes when it settles.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// NewMemo returns a Memo bounded to maxEntries entries and maxBytes
// total value bytes as reported by size. A bound <= 0 means unlimited
// on that axis; a nil size prices every value at zero bytes (so only
// the entry bound applies).
func NewMemo[V any](maxEntries int, maxBytes int64, size func(V) int64) *Memo[V] {
	return &Memo[V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		size:       size,
		order:      list.New(),
		entries:    make(map[string]*list.Element),
		flights:    make(map[string]*flight[V]),
	}
}

// Memo.Do outcomes, recorded on spans and EngineStats counters.
const (
	outcomeHit    = "hit"    // served from the cache
	outcomeShared = "shared" // joined another caller's in-flight computation
	outcomeMiss   = "miss"   // computed by this call
	outcomeCancel = "cancel" // caller's context ended while waiting
)

// Do returns the memoized value for key, computing it with fn on a
// miss. The boolean reports whether the value was shared — served from
// cache or from another caller's in-flight computation — versus
// computed by this call. Identical concurrent keys run fn exactly
// once.
//
// When the context carries an obs.Tracer, the whole Do — including
// time spent waiting on another caller's flight — is one span with an
// "outcome" arg; obs.EngineStats counters tally hits, misses and
// shared flights.
func (m *Memo[V]) Do(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, bool, error) {
	tracer, stats := obs.TracerFrom(ctx), obs.EngineStatsFrom(ctx)
	if tracer == nil && stats == nil {
		v, outcome, err := m.do(ctx, key, fn)
		return v, outcome != outcomeMiss, err
	}
	ctx, span := obs.StartSpan(ctx, "memo")
	v, outcome, err := m.do(ctx, key, fn)
	span.SetArg("outcome", outcome)
	span.End()
	if stats != nil {
		switch outcome {
		case outcomeHit:
			stats.MemoHit.Add(1)
		case outcomeMiss:
			stats.MemoMiss.Add(1)
		case outcomeShared:
			stats.MemoShared.Add(1)
		}
	}
	return v, outcome != outcomeMiss, err
}

// do is Do without instrumentation; the string return is the outcome.
func (m *Memo[V]) do(ctx context.Context, key string, fn func(context.Context) (V, error)) (V, string, error) {
	for {
		m.mu.Lock()
		if el, ok := m.entries[key]; ok {
			m.order.MoveToFront(el)
			v := el.Value.(*memoEntry[V]).val
			m.mu.Unlock()
			return v, outcomeHit, nil
		}
		if f, inflight := m.flights[key]; inflight {
			m.mu.Unlock()
			select {
			case <-f.done:
				if f.err == nil {
					return f.val, outcomeShared, nil
				}
				// The computing caller failed. If it was torn down by its
				// own cancellation and we are still live, take over.
				if isCancellation(f.err) && ctx.Err() == nil {
					continue
				}
				var zero V
				return zero, outcomeShared, f.err
			case <-ctx.Done():
				var zero V
				return zero, outcomeCancel, ctx.Err()
			}
		}
		f := &flight[V]{done: make(chan struct{})}
		m.flights[key] = f
		m.mu.Unlock()

		f.val, f.err = fn(ctx)

		m.mu.Lock()
		delete(m.flights, key)
		if f.err == nil {
			m.add(key, f.val)
		}
		m.mu.Unlock()
		close(f.done)
		return f.val, outcomeMiss, f.err
	}
}

// add caches the value do just computed for key, which no entry holds
// (callers of a key in flight wait on its flight instead of adding),
// then evicts from the LRU end until both bounds hold. A value alone
// too large for the byte budget is returned to its caller but never
// cached, and evicts nothing, so one oversized value cannot flush the
// cache.
//
//lockguard:held mu
func (m *Memo[V]) add(key string, val V) {
	var n int64
	if m.size != nil {
		n = m.size(val)
	}
	if m.maxBytes > 0 && n > m.maxBytes {
		return
	}
	m.entries[key] = m.order.PushFront(&memoEntry[V]{key: key, val: val, bytes: n})
	m.bytes += n
	for m.order.Len() > 0 &&
		((m.maxEntries > 0 && m.order.Len() > m.maxEntries) ||
			(m.maxBytes > 0 && m.bytes > m.maxBytes)) {
		m.remove(m.order.Back())
	}
}

// remove drops one entry under m.mu.
//
//lockguard:held mu
func (m *Memo[V]) remove(el *list.Element) {
	e := el.Value.(*memoEntry[V])
	m.order.Remove(el)
	delete(m.entries, e.key)
	m.bytes -= e.bytes
}

// Len returns the current entry count.
func (m *Memo[V]) Len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.order.Len()
}

// Bytes returns the summed size of all cached values.
func (m *Memo[V]) Bytes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.bytes
}

// isCancellation reports whether err is a context teardown rather than
// a real computation failure.
func isCancellation(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
