package obs

import (
	"math/bits"
	"sync/atomic"
	"time"
)

// subBits sets the histogram's resolution: each power-of-two range is
// split into 2^subBits linear sub-buckets, bounding the relative
// quantile error at 1/2^subBits ≈ 6%.
const subBits = 4

// numBuckets covers every non-negative int64 duration: 16 linear
// buckets below 16ns, then 16 sub-buckets per power of two up to 2^63.
const numBuckets = (64-subBits)<<subBits + 1<<subBits // 976

// Histogram is a lock-free log-linear latency histogram: Observe is a
// handful of atomic adds (no mutex, no allocation), making it cheap
// enough for per-job engine instrumentation, and quantiles are
// estimated from the bucket counts with ≤ ~6% relative error.
//
// Values are durations; negative observations clamp to zero. The name
// identifies the metric in Prometheus exposition and is checked for
// snake_case and per-package uniqueness by the metricreg analyzer.
type Histogram struct {
	name    string
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64 // nanoseconds
	buckets [numBuckets]atomic.Int64
}

// NewHistogram returns an empty histogram named name (snake_case; the
// metricreg analyzer enforces the scheme and flags duplicate
// registrations at build time — there is no runtime registry to
// panic).
func NewHistogram(name string) *Histogram {
	return &Histogram{name: name}
}

// Name returns the registered metric name.
func (h *Histogram) Name() string { return h.name }

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	v := int64(d)
	if v < 0 {
		v = 0
	}
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
	h.buckets[bucketIndex(v)].Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest observation.
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) of the observed
// distribution by linear interpolation inside the covering bucket.
// It returns 0 when the histogram is empty. Concurrent Observes make
// the estimate approximate, never invalid.
func (h *Histogram) Quantile(q float64) time.Duration {
	total := h.count.Load()
	if total <= 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	// rank is the 1-based index of the target observation.
	rank := int64(q*float64(total-1)) + 1
	var seen int64
	for i := 0; i < numBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		if seen+n >= rank {
			lo, hi := bucketLow(i), bucketLow(i+1)
			// Interpolate the rank's position within this bucket.
			frac := float64(rank-seen) / float64(n+1)
			est := float64(lo) + frac*float64(hi-lo)
			if m := h.max.Load(); est > float64(m) {
				est = float64(m) // never report beyond the observed max
			}
			return time.Duration(est)
		}
		seen += n
	}
	return h.Max()
}

// bucketIndex maps a non-negative nanosecond value to its bucket: the
// identity below 2^subBits, then log-linear (HDR-histogram style)
// above.
func bucketIndex(v int64) int {
	u := uint64(v)
	if u < 1<<subBits {
		return int(u)
	}
	msb := bits.Len64(u) - 1
	shift := msb - subBits
	return (shift+1)<<subBits + int((u>>shift)&(1<<subBits-1))
}

// bucketLow is bucketIndex's inverse: the smallest value landing in
// bucket i.
func bucketLow(i int) int64 {
	if i < 1<<subBits {
		return int64(i)
	}
	shift := i>>subBits - 1
	sub := int64(i & (1<<subBits - 1))
	return (1<<subBits + sub) << shift
}

// Counter is a named atomic counter (the engine's memo outcomes),
// under the metricreg-enforced naming scheme.
type Counter struct {
	name string
	v    atomic.Int64
}

// NewCounter returns a zero counter named name (snake_case, checked
// by the metricreg analyzer).
func NewCounter(name string) *Counter { return &Counter{name: name} }

// Name returns the registered metric name.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n.
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// EngineStats bundles the engine-level instruments engine.Map and
// engine.Memo record into when a context carries one (see
// WithEngineStats): where each parallel job's time went — waiting for
// a worker slot versus evaluating — and how the memoization layer's
// flights resolved.
type EngineStats struct {
	// Eval observes each Map item's fn execution time.
	Eval *Histogram
	// QueueWait observes each Map item's wait between Map entry and a
	// worker picking it up.
	QueueWait *Histogram
	// MemoHit / MemoMiss / MemoShared count Memo.Do outcomes: served
	// from cache, computed by this call, or shared with another
	// caller's in-flight computation.
	MemoHit    *Counter
	MemoMiss   *Counter
	MemoShared *Counter
}

// NewEngineStats returns an EngineStats with the canonical metric
// names used by the service's Prometheus exposition.
func NewEngineStats() *EngineStats {
	return &EngineStats{
		Eval:       NewHistogram("engine_eval_duration"),
		QueueWait:  NewHistogram("engine_queue_wait_duration"),
		MemoHit:    NewCounter("engine_memo_hits"),
		MemoMiss:   NewCounter("engine_memo_misses"),
		MemoShared: NewCounter("engine_memo_shared_flights"),
	}
}
