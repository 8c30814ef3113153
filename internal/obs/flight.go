package obs

import (
	"io"
	"sort"
	"time"
)

// flightEvent is one B or E trace_event record of a flight dump.
// Unlike the -trace exporter's complete "X" events, dumps use
// begin/end pairs so validators (cmd/tracecheck) can check balance
// and per-lane monotonicity — exactly the properties a bounded store
// that overwrites its oldest records could silently lose.
type flightEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"` // µs since epoch
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// laneSpan is one open span during the flight-dump lane simulation.
type laneSpan struct {
	name string
	end  time.Time
}

// WriteFlight renders records as a Chrome trace_event JSON array of
// balanced B/E pairs with timestamps in µs relative to epoch.
//
// Lanes are re-assigned from scratch: each span goes to the first
// lane where it either nests inside that lane's innermost open span
// or starts after every open span there has ended. Each lane's event
// sequence is therefore properly nested and monotonic by construction
// — concurrent requests that shared recorder lane 0 come out on
// separate dump lanes instead of interleaving. The recorder's
// original lane survives as the "lane" arg on every B event.
//
// records must be sorted by start time with ties broken longer-first
// (Snapshot's order).
func WriteFlight(w io.Writer, recs []SpanRecord, epoch time.Time) error {
	var lanes [][]laneSpan // per-lane stack of open spans
	// Per-lane event sequences are built in simulation order (always
	// monotonic in ts within a lane), then merged by a stable sort on
	// ts — which preserves each lane's internal order.
	perLane := make([][]flightEvent, 0, 4)
	popUntil := func(lane int, t time.Time) {
		st := lanes[lane]
		for len(st) > 0 && !st[len(st)-1].end.After(t) {
			top := st[len(st)-1]
			st = st[:len(st)-1]
			perLane[lane] = append(perLane[lane], flightEvent{
				Name: top.name, Ph: "E", TS: usSince(epoch, top.end), PID: 1, TID: lane,
			})
		}
		lanes[lane] = st
	}
	for _, rec := range recs {
		lane := -1
		for i := range lanes {
			popUntil(i, rec.Start)
			st := lanes[i]
			if len(st) == 0 || !st[len(st)-1].end.Before(rec.End()) {
				lane = i
				break
			}
		}
		if lane == -1 {
			lanes = append(lanes, nil)
			perLane = append(perLane, nil)
			lane = len(lanes) - 1
		}
		args := make(map[string]any, len(rec.Args)+1)
		for k, v := range rec.Args {
			args[k] = v
		}
		args["lane"] = rec.TID
		perLane[lane] = append(perLane[lane], flightEvent{
			Name: rec.Name, Ph: "B", TS: usSince(epoch, rec.Start), PID: 1, TID: lane, Args: args,
		})
		lanes[lane] = append(lanes[lane], laneSpan{name: rec.Name, end: rec.End()})
	}
	for i := range lanes {
		// Close everything still open; the zero time is after any end.
		for len(lanes[i]) > 0 {
			top := lanes[i][len(lanes[i])-1]
			lanes[i] = lanes[i][:len(lanes[i])-1]
			perLane[i] = append(perLane[i], flightEvent{
				Name: top.name, Ph: "E", TS: usSince(epoch, top.end), PID: 1, TID: i,
			})
		}
	}
	var events []flightEvent
	for _, seq := range perLane {
		events = append(events, seq...)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].TS < events[j].TS })

	return writeEvents(w, events)
}

// usSince returns t in microseconds relative to epoch, clamped at 0.
func usSince(epoch, t time.Time) float64 {
	us := float64(t.Sub(epoch).Nanoseconds()) / 1e3
	if us < 0 {
		return 0
	}
	return us
}
