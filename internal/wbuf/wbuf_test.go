package wbuf

import (
	"testing"
	"testing/quick"
)

func TestNewClampsDepth(t *testing.T) {
	if New(0).depth != 1 || New(-5).depth != 1 {
		t.Fatal("non-positive depth not clamped to 1")
	}
	if New(8).depth != 8 {
		t.Fatal("depth not preserved")
	}
}

func TestPostNoStallWhenEmpty(t *testing.T) {
	b := New(2)
	if stall := b.Post(100, 0, 7, 40); stall != 0 {
		t.Fatalf("empty buffer post stalled %d", stall)
	}
	if got := b.queued(100, 0); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

func TestEntriesDrainOverTime(t *testing.T) {
	b := New(2)
	b.Post(0, 0, 1, 10) // drains at 10 on an idle bus
	if got := b.queued(5, 0); got != 1 {
		t.Fatalf("Len mid-drain = %d, want 1", got)
	}
	if got := b.queued(10, 0); got != 0 {
		t.Fatalf("Len after drain = %d, want 0", got)
	}
}

func TestBusReservationDelaysDrain(t *testing.T) {
	b := New(2)
	b.Post(0, 50, 1, 10) // bus busy with a fill until 50
	if got := b.queued(49, 50); got != 1 {
		t.Fatalf("entry drained during fill: Len = %d", got)
	}
	if got := b.queued(60, 50); got != 0 {
		t.Fatalf("entry not drained after fill: Len = %d", got)
	}
}

func TestFullBufferStalls(t *testing.T) {
	b := New(1)
	b.Post(0, 0, 1, 10)
	stall := b.Post(2, 0, 2, 10) // head drains at 10: wait 8
	if stall != 8 {
		t.Fatalf("full stall = %d, want 8", stall)
	}
}

func TestConflictWait(t *testing.T) {
	b := New(4)
	b.Post(0, 0, 42, 10)
	if stall := b.ConflictWait(3, 0, 42); stall != 7 {
		t.Fatalf("conflict stall = %d, want 7", stall)
	}
	// The wait drained the entry: a second read of the line is free.
	if stall := b.ConflictWait(10, 0, 42); stall != 0 {
		t.Fatalf("repeat conflict stall = %d, want 0", stall)
	}
	// No conflict for another line.
	b.Post(20, 0, 9, 10)
	if stall := b.ConflictWait(21, 0, 8); stall != 0 {
		t.Fatalf("non-conflicting wait = %d, want 0", stall)
	}
}

func TestConflictWaitEmptyBuffer(t *testing.T) {
	b := New(4)
	if stall := b.ConflictWait(5, 0, 1); stall != 0 {
		t.Fatalf("empty conflict wait = %d", stall)
	}
}

func TestOverrunBufferStalls(t *testing.T) {
	deep := New(16)
	shallow := New(1)
	// Post a burst of back-to-back flushes, each 20 bus cycles. The deep
	// buffer absorbs all eight; the one-entry buffer makes post i wait
	// for post i-1 to drain at 20·i, i.e. 20·i − i cycles.
	var deepStall, shallowStall int64
	for i := int64(0); i < 8; i++ {
		deepStall += deep.Post(i, 0, uint64(i), 20)
		shallowStall += shallow.Post(i, 0, uint64(i), 20)
	}
	if deepStall != 0 {
		t.Fatalf("deep buffer stalled %d cycles, want 0", deepStall)
	}
	if want := int64(19 * (1 + 2 + 3 + 4 + 5 + 6 + 7)); shallowStall != want {
		t.Fatalf("shallow buffer stalled %d cycles, want %d", shallowStall, want)
	}
}

func TestFIFOOrderProperty(t *testing.T) {
	// Property: posts never return negative stalls, and Len never
	// exceeds depth.
	f := func(durs []uint8, depth uint8) bool {
		d := int(depth%6) + 1
		b := New(d)
		now := int64(0)
		for i, u := range durs {
			stall := b.Post(now, 0, uint64(i), int64(u%30)+1)
			if stall < 0 {
				return false
			}
			now += stall + 1
			if b.queued(now, 0) > d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestPostStallBoundedByEarlierWrites(t *testing.T) {
	// With an idle bus, a full buffer can hold a post back at most until
	// every earlier write has drained: its stall never exceeds their
	// summed bus time.
	f := func(durs []uint8) bool {
		b := New(1)
		var earlier int64
		for i, u := range durs {
			dur := int64(u) + 1
			stall := b.Post(int64(i), 0, uint64(i), dur)
			if stall < 0 || stall > earlier {
				return false
			}
			earlier += dur
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
