// Package wbuf models read-bypassing write buffers.
//
// A write buffer (Chen & Somani §4.3) queues cache flushes and
// write-around stores so the processor does not wait for them; the
// entries drain to memory in bus idle time, and read misses bypass the
// queued writes. The buffer exposes latency to the processor in exactly
// two cases:
//
//   - the buffer is full when a new write is posted (the CPU waits for
//     the oldest entry's transfer to finish), and
//   - a read miss targets a line with a queued write (the fill must
//     wait for that entry to drain, or it would fetch stale memory).
//
// With an appropriate memory cycle time the paper treats the buffers as
// hiding flush latency completely; the stall cycles Post and
// ConflictWait return measure how far a finite-depth buffer falls
// short of that ideal.
//
// Time is the caller's cycle counter. The buffer does not own a clock;
// every method takes `now` (the current cycle) and `busBusyUntil` (the
// cycle until which the bus is reserved by fills), because fills always
// preempt queued writes under read bypassing.
package wbuf

// Buffer is a FIFO read-bypassing write buffer. The zero value is an
// unusable zero-depth buffer; construct with New.
type Buffer struct {
	depth   int
	entries []entry
}

type entry struct {
	line    uint64
	postAt  int64
	dur     int64
	drainAt int64 // recomputed by schedule
}

// New returns a buffer holding up to depth queued writes. depth < 1 is
// treated as 1.
func New(depth int) *Buffer {
	if depth < 1 {
		depth = 1
	}
	return &Buffer{depth: depth}
}

// queued returns the number of entries still queued or in flight at now.
func (b *Buffer) queued(now, busBusyUntil int64) int {
	b.compact(now, busBusyUntil)
	return len(b.entries)
}

// schedule recomputes drain-completion times: FIFO service after the
// bus reservation, each entry starting no earlier than its post time.
func (b *Buffer) schedule(busBusyUntil int64) {
	t := busBusyUntil
	for i := range b.entries {
		if b.entries[i].postAt > t {
			t = b.entries[i].postAt
		}
		t += b.entries[i].dur
		b.entries[i].drainAt = t
	}
}

// compact drops entries whose transfers finished by now.
func (b *Buffer) compact(now, busBusyUntil int64) {
	b.schedule(busBusyUntil)
	n := 0
	for i := range b.entries {
		if b.entries[i].drainAt > now {
			b.entries[n] = b.entries[i]
			n++
		}
	}
	b.entries = b.entries[:n]
}

// Post queues a write of line taking dur bus cycles, returning the
// number of cycles the CPU must stall because the buffer was full
// (zero when a slot is free).
func (b *Buffer) Post(now, busBusyUntil int64, line uint64, dur int64) (stall int64) {
	b.compact(now, busBusyUntil)
	if len(b.entries) >= b.depth {
		if head := b.entries[0]; head.drainAt > now {
			stall = head.drainAt - now
			now = head.drainAt
		}
		b.compact(now, busBusyUntil)
	}
	b.entries = append(b.entries, entry{line: line, postAt: now, dur: dur})
	b.schedule(busBusyUntil)
	return stall
}

// ConflictWait returns the cycles a read miss of line must wait for
// queued writes of the same line to drain, advancing internal state as
// if the caller waited.
func (b *Buffer) ConflictWait(now, busBusyUntil int64, line uint64) (stall int64) {
	b.compact(now, busBusyUntil)
	if len(b.entries) == 0 {
		return 0
	}
	t := now
	for i := range b.entries {
		if b.entries[i].line == line && b.entries[i].drainAt > t {
			t = b.entries[i].drainAt
		}
	}
	stall = t - now
	if stall > 0 {
		b.compact(t, busBusyUntil)
	}
	return stall
}
