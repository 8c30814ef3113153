package obs

import (
	"fmt"
	"testing"
	"time"
)

// TestExemplarsEvictOldestFirst is the regression test for the
// exemplar budget: a burst of captures beyond the budget must keep
// the newest evidence and evict strictly oldest-first.
func TestExemplarsEvictOldestFirst(t *testing.T) {
	x := NewExemplars(3)
	for i := 0; i < 10; i++ {
		x.Add(Exemplar{
			RequestID: fmt.Sprintf("req-%d", i),
			Time:      time.Date(2026, 8, 8, 12, 0, i, 0, time.UTC),
		})
	}
	if got := x.Captured(); got != 10 {
		t.Fatalf("Captured() = %d, want 10", got)
	}
	if got := len(x.Snapshot()); got != 3 {
		t.Fatalf("Len() = %d, want budget 3", got)
	}
	snap := x.Snapshot()
	want := []string{"req-9", "req-8", "req-7"} // newest first
	for i, id := range want {
		if snap[i].RequestID != id {
			t.Fatalf("snapshot[%d] = %s, want %s (full: %+v)", i, snap[i].RequestID, id, snap)
		}
	}
}

func TestExemplarsMinimumBudget(t *testing.T) {
	x := NewExemplars(0)
	x.Add(Exemplar{RequestID: "a"})
	x.Add(Exemplar{RequestID: "b"})
	if len(x.Snapshot()) != 1 || x.Snapshot()[0].RequestID != "b" {
		t.Fatalf("budget-0 store = %+v, want just the newest", x.Snapshot())
	}
}
