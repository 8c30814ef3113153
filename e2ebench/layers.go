package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// span is one completed trace_event record of a request's tracer.
type span struct {
	Name string         `json:"name"`
	TS   float64        `json:"ts"`  // µs since the tracer's epoch
	Dur  float64        `json:"dur"` // µs
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`

	parent  int     // index of the enclosing span, -1 for the root
	covered float64 // µs of this span covered by its children
	reach   float64 // end of the children merged into covered so far
}

func (s *span) end() float64 { return s.TS + s.Dur }

// benchSpans are the spans the benchmark opens itself; they all run
// on the request's goroutine, so any program span on a worker lane
// that no span of its own lane encloses belongs to the innermost one.
var benchSpans = map[string]bool{
	"service.request": true, "service.decode": true, "service.limits": true,
	"service.key": true, "service.memo": true, "service.run": true, "service.encode": true,
	"mrc.get": true, "model.get": true, "simjob.trace_get": true,
	"sweep.run": true, "sweep.optimize": true, "simjob.grid": true, "core.tradeoff": true,
}

// mapSpans are engine.Map's per-item spans.
var mapSpans = map[string]bool{"sweep_point": true, "optimize_point": true, "sim_job": true}

// nest links every span to its parent and computes how much of each
// span its children cover. A span's parent is the innermost earlier
// span on its own lane that encloses it or, failing that, the
// innermost enclosing benchmark span. Self time is a span's duration
// minus the union of its children's intervals.
func nest(spans []span) {
	sort.SliceStable(spans, func(i, j int) bool {
		if spans[i].TS != spans[j].TS {
			return spans[i].TS < spans[j].TS
		}
		return spans[i].Dur > spans[j].Dur
	})
	const eps = 0.01 // µs: timestamps are rounded to the nanosecond
	encloses := func(p, c *span) bool { return p.TS <= c.TS+eps && c.end() <= p.end()+eps }
	lanes := map[int][]int{} // per-lane stack of open spans
	var bench []int          // stack of open benchmark spans
	pop := func(stack []int, c *span) []int {
		for len(stack) > 0 && !encloses(&spans[stack[len(stack)-1]], c) {
			stack = stack[:len(stack)-1]
		}
		return stack
	}
	for i := range spans {
		c := &spans[i]
		c.parent = -1
		lane := pop(lanes[c.TID], c)
		bench = pop(bench, c)
		switch {
		case len(lane) > 0:
			c.parent = lane[len(lane)-1]
		case len(bench) > 0:
			c.parent = bench[len(bench)-1]
		}
		if c.parent >= 0 {
			p := &spans[c.parent]
			start, end := max(c.TS, p.TS, p.reach), min(c.end(), p.end())
			if end > start {
				p.covered += end - start
			}
			p.reach = max(p.reach, end)
		}
		lanes[c.TID] = append(lane, i)
		if benchSpans[c.Name] {
			bench = append(bench, i)
		}
	}
}

// layerStats accumulates per-layer numbers over traced requests.
type layerStats struct {
	requests          int
	rootDur, rootSelf float64

	names map[string]*nameStats

	memoHits, memoLookups int     // response-memo outcomes
	memoSelf              float64 // µs of response-memo self time
	queueWait             float64 // µs summed over Map items
	mapItems              int
	sweepDur, sweepCover  float64 // sweep.run + sweep.optimize, and their Map-item coverage
	points                int
	simPointDur           float64 // µs of sweep_point spans in "sim:" sweeps
	simPoints, simRefs    int
	curveHits, curveGets  int
	traceRefs             float64
	traceDur              float64
	jobRefs               float64
	jobDur                float64
	jobs                  int
	exactGrids            int
	exactGridDur          float64
}

type nameStats struct {
	count     int
	dur, self float64
}

func newLayerStats() *layerStats { return &layerStats{names: map[string]*nameStats{}} }

// add folds one request's spans into the totals.
func (ls *layerStats) add(req Request, spans []span) error {
	nest(spans)
	if len(spans) == 0 || spans[0].Name != "service.request" || spans[0].parent != -1 {
		return fmt.Errorf("trace of a %s request has no service.request root", req.Kind)
	}
	var body struct {
		SimRefs int `json:"sim_refs"`
		Refs    int `json:"refs"`
	}
	if err := json.Unmarshal(req.Body, &body); err != nil {
		return err
	}
	ls.requests++
	ls.rootDur += spans[0].Dur
	ls.rootSelf += spans[0].Dur - spans[0].covered
	for i := range spans {
		s := &spans[i]
		self := s.Dur - s.covered
		ns := ls.names[s.Name]
		if ns == nil {
			ns = &nameStats{}
			ls.names[s.Name] = ns
		}
		ns.count++
		ns.dur += s.Dur
		ns.self += self
		parent := ""
		if s.parent >= 0 {
			parent = spans[s.parent].Name
		}
		switch {
		case s.Name == "memo" && parent == "service.memo":
			ls.memoLookups++
			if s.Args["outcome"] != "miss" {
				ls.memoHits++
			}
			ls.memoSelf += self
		case mapSpans[s.Name]:
			if w, ok := s.Args["queue_wait_us"].(float64); ok {
				ls.queueWait += w
				ls.mapItems++
			}
			if s.Name == "sim_job" {
				ls.jobs++
				ls.jobDur += s.Dur
				ls.jobRefs += float64(body.Refs)
			}
			if s.Name == "sweep_point" && req.Kind == "sweep-sim" {
				ls.simPoints++
				ls.simPointDur += s.Dur
				ls.simRefs += body.SimRefs
			}
		case s.Name == "sweep.run" || s.Name == "sweep.optimize":
			ls.sweepDur += s.Dur
			ls.sweepCover += s.covered
		case s.Name == "mrc.get":
			ls.curveGets++
			if s.Args["hit"] == true {
				ls.curveHits++
			}
		case s.Name == "simjob.trace_get":
			if g, _ := s.Args["generated"].(float64); g > 0 {
				ls.traceDur += s.Dur
				ls.traceRefs += float64(body.Refs)
			}
		case s.Name == "simjob.grid" && s.Args["mode"] == "exact":
			ls.exactGrids++
			ls.exactGridDur += s.Dur
		}
		if s.Name == "sweep_point" || s.Name == "optimize_point" {
			ls.points++
		}
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func (ls *layerStats) mean(name string) float64 {
	if ns := ls.names[name]; ns != nil {
		return ratio(ns.dur, float64(ns.count))
	}
	return 0
}

func (ls *layerStats) count(name string) int {
	if ns := ls.names[name]; ns != nil {
		return ns.count
	}
	return 0
}

// metric is one reported number with its unit and sample count.
type metric struct {
	Name    string
	Value   float64
	Unit    string
	Samples int
}

// perLayer derives the per-layer metrics (see BENCHMARK.json). Times
// are means over the spans named, in the unit the name gives.
func (ls *layerStats) perLayer() []metric {
	sweeps := ls.count("sweep.run") + ls.count("sweep.optimize")
	return []metric{
		{"service.decode_us", ls.mean("service.decode"), "us", ls.count("service.decode")},
		{"service.key_us", ls.mean("service.key"), "us", ls.count("service.key")},
		{"service.encode_us", ls.mean("service.encode"), "us", ls.count("service.encode")},
		{"engine.memo_hit_share", ratio(float64(ls.memoHits), float64(ls.memoLookups)), "share", ls.memoLookups},
		{"engine.memo_us", ratio(ls.memoSelf, float64(ls.memoLookups)), "us", ls.memoLookups},
		{"engine.queue_wait_us", ratio(ls.queueWait, float64(ls.mapItems)), "us", ls.mapItems},
		{"engine.map_overhead_share", 1 - ratio(ls.sweepCover, ls.sweepDur), "share", sweeps},
		{"sweep.run_ms", ls.mean("sweep.run") / 1e3, "ms", ls.count("sweep.run")},
		{"sweep.optimize_ms", ls.mean("sweep.optimize") / 1e3, "ms", ls.count("sweep.optimize")},
		{"sweep.points_per_s", ratio(float64(ls.points), ls.sweepDur/1e6), "1/s", ls.points},
		{"sweep.sim_point_ms", ratio(ls.simPointDur, float64(ls.simPoints)) / 1e3, "ms", ls.simPoints},
		{"mrc.passes", ratio(100*float64(ls.count("mrc_pass")), float64(ls.requests)), "count", ls.requests},
		{"mrc.pass_ms", ls.mean("mrc_pass") / 1e3, "ms", ls.count("mrc_pass")},
		{"mrc.curve_hit_share", ratio(float64(ls.curveHits), float64(ls.curveGets)), "share", ls.curveGets},
		{"model.lookup_us", ls.mean("model.get"), "us", ls.count("model.get")},
		{"trace.collect_refs_per_s", ratio(ls.traceRefs, ls.traceDur/1e6), "1/s", ls.count("simjob.trace_get")},
		{"cache.refs_per_s", ratio(float64(ls.simRefs), ls.simPointDur/1e6), "1/s", ls.simPoints},
		{"stall.refs_per_s", ratio(ls.jobRefs, ls.jobDur/1e6), "1/s", ls.jobs},
		{"stall.job_ms", ratio(ls.jobDur, float64(ls.jobs)) / 1e3, "ms", ls.jobs},
		{"simjob.grid_ms", ratio(ls.exactGridDur, float64(ls.exactGrids)) / 1e3, "ms", ls.exactGrids},
		{"core.tradeoff_us", ls.mean("core.tradeoff"), "us", ls.count("core.tradeoff")},
		{"obs.unattributed_share", ratio(ls.rootSelf, ls.rootDur), "share", ls.requests},
	}
}

// writeTable prints the layer table: every span name with its count,
// mean duration, summed self time and share of all self time. Self
// times of parallel Map items each count in full, so the shares add up
// to the CPU-side work of the traced requests; the service.request row
// is the unattributed remainder.
func (ls *layerStats) writeTable(w io.Writer) {
	names := make([]string, 0, len(ls.names))
	total := 0.0
	for name, ns := range ls.names {
		names = append(names, name)
		total += ns.self
	}
	sort.Slice(names, func(i, j int) bool { return ls.names[names[i]].self > ls.names[names[j]].self })
	fmt.Fprintf(w, "  %-20s %9s %12s %12s %7s\n", "span", "count", "mean_us", "self_ms", "self%")
	for _, name := range names {
		ns := ls.names[name]
		fmt.Fprintf(w, "  %-20s %9d %12.2f %12.2f %6.2f%%\n", name, ns.count, ns.dur/float64(ns.count), ns.self/1e3, 100*ratio(ns.self, total))
	}
	fmt.Fprintf(w, "  %-20s %9d %12.2f %12.2f %6.2f%%\n", "total", ls.requests, ratio(ls.rootDur, float64(ls.requests)), total/1e3, 100.0)
}
