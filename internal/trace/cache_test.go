package trace

import (
	"context"
	"errors"
	"reflect"
	"sync"
	"testing"

	"tradeoff/internal/engine"
)

func TestRefBytes(t *testing.T) {
	if refBytes != 24 {
		t.Fatalf("sizeof(Ref) = %d, want 24 (CacheBytes is documented in 24-byte refs)", refBytes)
	}
}

func TestNamedMaterialize(t *testing.T) {
	n := Named{Program: Ear, Seed: 3, Refs: 500}
	got, err := n.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	if want := Collect(MustWorkload(Ear, 3), 500); !reflect.DeepEqual(got, want) {
		t.Fatal("Materialize differs from collecting the workload")
	}
	if _, err := (Named{Program: "nope", Refs: 1}).Materialize(); err == nil {
		t.Fatal("unknown workload materialized")
	}
}

func TestCacheMemoizes(t *testing.T) {
	c := NewCache()
	ctx := context.Background()
	n := Named{Program: Zipf, Seed: 1, Refs: 1000}
	a, err := c.Get(ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := c.Get(ctx, n)
	if &a[0] != &b[0] {
		t.Fatal("second Get did not share the cached slice")
	}
	if g := c.Generated(); g != 1 {
		t.Fatalf("generated = %d, want 1", g)
	}
	if got, want := c.memo.Bytes(), 1000*refBytes; got != want {
		t.Fatalf("bytes = %d, want %d", got, want)
	}
	if _, err := c.Get(ctx, Named{Program: "nope", Refs: 1}); err == nil {
		t.Fatal("unknown workload served")
	}
	if got, want := c.memo.Bytes(), 1000*refBytes; got != want {
		t.Fatalf("bytes = %d after a failed materialization, want %d", got, want)
	}
}

// smallCache is a Cache whose budget holds fewer references than the
// test traces, so nothing is ever admitted.
func smallCache(refs int) *Cache {
	return &Cache{memo: engine.NewMemo(0, int64(refs)*refBytes, func(r []Ref) int64 {
		return int64(cap(r)) * refBytes
	})}
}

// TestHoldSharesOverBudgetTrace is the within-run guarantee: under a
// hold, concurrent and repeated fetches of a trace the cache cannot
// admit still materialize it once.
func TestHoldSharesOverBudgetTrace(t *testing.T) {
	c := smallCache(100)
	n := Named{Program: Nasa7, Seed: 2, Refs: 1000}
	ctx := WithHold(context.Background())
	var wg sync.WaitGroup
	got := make([][]Ref, 8)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], _ = c.Get(ctx, n)
		}(i)
	}
	wg.Wait()
	for i := range got {
		if len(got[i]) != 1000 || &got[i][0] != &got[0][0] {
			t.Fatalf("caller %d did not get the held trace", i)
		}
	}
	if g := c.Generated(); g != 1 {
		t.Fatalf("generated = %d under one hold, want 1", g)
	}
	if c.memo.Bytes() != 0 {
		t.Fatal("an over-budget trace was cached")
	}
	// A nested hold is the same hold; a new run fetches afresh.
	if _, err := c.Get(WithHold(ctx), n); err != nil || c.Generated() != 1 {
		t.Fatalf("nested hold refetched: generated = %d, err = %v", c.Generated(), err)
	}
	if _, err := c.Get(WithHold(context.Background()), n); err != nil || c.Generated() != 2 {
		t.Fatalf("second run: generated = %d, want 2 (err %v)", c.Generated(), err)
	}
}

// TestNilCacheUnderHold: an unwired tier (nil cache) still shares its
// traces within the run, with any cache the run also reads.
func TestNilCacheUnderHold(t *testing.T) {
	var none *Cache
	c := NewCache()
	n := Named{Program: Hydro2D, Seed: 5, Refs: 300}
	ctx := WithHold(context.Background())
	a, err := none.Get(ctx, n)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := c.Get(ctx, n)
	if &a[0] != &b[0] || c.Generated() != 0 {
		t.Fatal("the hold did not serve the trace the nil cache fetched")
	}
	if none.Generated() != 0 {
		t.Fatal("a nil cache counted a materialization")
	}
	// Outside a hold a nil cache materializes every time.
	x, _ := none.Get(context.Background(), n)
	y, _ := none.Get(context.Background(), n)
	if &x[0] == &y[0] || !reflect.DeepEqual(x, y) {
		t.Fatal("nil cache outside a hold should materialize equal, unshared traces")
	}
}

// TestHoldDropsFailures: a failed fetch is not held, so the run's next
// fetch retries, and a waiter outlives a fetcher's own cancellation.
func TestHoldDropsFailures(t *testing.T) {
	h := &hold{traces: make(map[Named]*heldTrace)}
	n := Named{Program: Ear, Refs: 10}
	boom := errors.New("boom")
	calls := 0
	fail := func(context.Context, Named) ([]Ref, error) { calls++; return nil, boom }
	ok := func(_ context.Context, n Named) ([]Ref, error) { calls++; return n.Materialize() }
	if _, err := h.get(context.Background(), n, fail); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want boom", err)
	}
	if refs, err := h.get(context.Background(), n, ok); err != nil || len(refs) != 10 {
		t.Fatalf("retry after failure: %d refs, err %v", len(refs), err)
	}
	if calls != 2 {
		t.Fatalf("fetches = %d, want 2", calls)
	}

	// A fetcher torn down by its own cancellation hands the fetch to a
	// live waiter instead of failing it.
	h = &hold{traces: make(map[Named]*heldTrace)}
	started, release := make(chan struct{}), make(chan struct{})
	cancelled := func(context.Context, Named) ([]Ref, error) {
		close(started)
		<-release
		return nil, context.Canceled
	}
	go func() { _, _ = h.get(context.Background(), n, cancelled) }()
	<-started
	done := make(chan error)
	go func() {
		refs, err := h.get(context.Background(), n, ok)
		if err == nil && len(refs) != 10 {
			err = errors.New("wrong trace")
		}
		done <- err
	}()
	close(release)
	if err := <-done; err != nil {
		t.Fatalf("waiter after a cancelled fetch: %v", err)
	}
}
