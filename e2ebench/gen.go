package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
)

// Request is one generated call to tradeoffd: the endpoint, whether
// the CSV form is asked for, the JSON payload, and what the generator
// knows the answer must look like.
type Request struct {
	Path string // "/v1/sweep", "/v1/optimize", "/v1/stall" or "/v1/tradeoff"
	CSV  bool
	Body []byte

	// Points is the design-point count the answer must carry: the
	// grid size of a sweep or stall grid, the enumerated total of an
	// optimize search, 0 for /v1/tradeoff.
	Points int
	// Analytic marks requests whose effective hit source is the
	// analytic tier, so a JSON answer must carry its error bound.
	Analytic bool
	// Kind labels the request in reports ("sweep-mrc", "stall", ...).
	Kind string
}

// URL returns the request's path and query.
func (r Request) URL() string {
	if r.CSV {
		return r.Path + "?format=csv"
	}
	return r.Path
}

// key identifies a request the way the server's response memo does:
// endpoint, format and payload (the generator never emits two
// payloads that differ only in field order or spelled-out defaults).
func (r Request) key() string { return r.URL() + "|" + string(r.Body) }

// Workload is one traffic mix: a deterministic request stream drawn
// from a seed, plus the warm-up requests a fresh server receives
// before timing starts.
type Workload struct {
	Name   string
	Seed   uint64
	Warmup []Request
	at     func(i int) Request
}

// At returns request i of the stream. Each request depends only on
// (seed, i), so a stream can be replayed from any index by any number
// of clients.
func (w *Workload) At(i int) Request { return w.at(i) }

// workloadNames are the benchmark's traffic mixes (see README.md).
var workloadNames = []string{"explore", "simulate", "revisit"}

// NewWorkload builds the named traffic mix for seed.
func NewWorkload(name string, seed uint64) (*Workload, error) {
	w := &Workload{Name: name, Seed: seed}
	switch name {
	case "explore":
		w.Warmup = exploreWarmup()
		w.at = func(i int) Request { return exploreAt(seed, i) }
	case "simulate":
		w.Warmup = []Request{simulateAt(^seed, 0), simulateAt(^seed, 1), simulateAt(^seed, 2)}
		w.at = func(i int) Request { return simulateAt(seed, i) }
	case "revisit":
		pool := revisitPool(seed)
		cdf := zipfCDF(len(pool), 1.1)
		w.Warmup = pool
		w.at = func(i int) Request {
			r := rng(seed, uint64(i))
			k := sort.SearchFloat64s(cdf, r.Float64())
			return pool[min(k, len(pool)-1)]
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
	}
	return w, nil
}

// workloads are the seven named hit-source workloads of the program.
var workloads = []string{"nasa7", "swm256", "wave5", "ear", "doduc", "hydro2d", "zipf"}

// programs are the six workloads /v1/stall replays as programs.
var programs = workloads[:6]

// lineSizes bounds every explore line size, so the curves a fresh
// server builds in warm-up (7 workloads × 4 lines × exact and
// sampled) fit its 64-entry curve cache and every later lookup hits.
var lineSizes = []int{16, 32, 64, 128}

// exploreRefs is the trace length explore's curves are profiled at.
const exploreRefs = 100_000

func rng(seed, i uint64) *rand.Rand { return rand.New(rand.NewPCG(seed, i)) }

// mustJSON marshals a generator payload; the payload types are plain
// data, so a failure is a bug in this file.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

// subset draws a sorted, non-empty subset of vals of size in [lo, hi].
func subset(r *rand.Rand, vals []int, lo, hi int) []int {
	n := lo + r.IntN(hi-lo+1)
	idx := r.Perm(len(vals))[:n]
	sort.Ints(idx)
	out := make([]int, n)
	for k, i := range idx {
		out[k] = vals[i]
	}
	return out
}

func pick[T any](r *rand.Rand, vals []T) T { return vals[r.IntN(len(vals))] }

// sweepBody is the /v1/sweep and /v1/optimize payload the generator
// emits (a subset of the server's schema; omitted fields default).
type sweepBody struct {
	CacheKB    []int       `json:"cache_kb"`
	LineBytes  []int       `json:"line_bytes"`
	BusBits    []int       `json:"bus_bits"`
	Assoc      int         `json:"assoc,omitempty"`
	LatencyNS  float64     `json:"latency_ns"`
	TransferNS float64     `json:"transfer_ns"`
	CPUNS      float64     `json:"cpu_ns"`
	HitSource  string      `json:"hit_source"`
	Mode       string      `json:"mode,omitempty"`
	SimRefs    int         `json:"sim_refs,omitempty"`
	Seed       uint64      `json:"seed,omitempty"`
	Levels     []levelBody `json:"levels,omitempty"`
	AreaBudget float64     `json:"area_budget,omitempty"`
}

type levelBody struct {
	CacheKB   []int   `json:"cache_kb"`
	LineBytes []int   `json:"line_bytes,omitempty"`
	LatencyNS float64 `json:"latency_ns"`
}

// flatPoints counts a flat grid's design points: the server skips
// lines shorter than two bus transfers.
func flatPoints(b sweepBody) int {
	n := 0
	for range b.CacheKB {
		for _, line := range b.LineBytes {
			for _, bus := range b.BusBits {
				if line >= 2*(bus/8) {
					n++
				}
			}
		}
	}
	return n
}

// optimizePoints counts the points an optimize search enumerates:
// every depth prefix of the level axes, each deeper level strictly
// larger than the one above with a line no shorter.
func optimizePoints(b sweepBody) int {
	total := 0
	for depth := 0; depth <= len(b.Levels); depth++ {
		for _, kb := range b.CacheKB {
			for _, line := range b.LineBytes {
				for _, bus := range b.BusBits {
					if line >= 2*(bus/8) {
						total += levelCompletions(b.Levels[:depth], kb, line)
					}
				}
			}
		}
	}
	return total
}

func levelCompletions(levels []levelBody, prevKB, prevLine int) int {
	if len(levels) == 0 {
		return 1
	}
	lines := levels[0].LineBytes
	if len(lines) == 0 {
		lines = []int{prevLine}
	}
	n := 0
	for _, kb := range levels[0].CacheKB {
		if kb <= prevKB {
			continue
		}
		for _, line := range lines {
			if line >= prevLine {
				n += levelCompletions(levels[1:], kb, line)
			}
		}
	}
	return n
}

// exploreWarmup profiles every curve explore can touch: one sweep per
// (workload, curve tier) over all line sizes, at the default trace
// seed. The grids differ from every stream request, so the stream
// still misses the response memo.
func exploreWarmup() []Request {
	var out []Request
	for _, w := range workloads {
		for _, prefix := range []string{"mrc:", "mrc~:", "an:"} {
			b := sweepBody{
				CacheKB: []int{8}, LineBytes: lineSizes, BusBits: []int{32},
				LatencyNS: 360, TransferNS: 60, CPUNS: 30,
				HitSource: prefix + w, SimRefs: exploreRefs,
			}
			out = append(out, Request{
				Path: "/v1/sweep", Body: mustJSON(b), Points: flatPoints(b),
				Analytic: prefix == "an:", Kind: "warmup",
			})
		}
	}
	return out
}

// exploreSources are explore's hit-source tiers; "model" is the
// calibrated surface, the others name a workload.
var exploreSources = []string{"mrc:", "mrc~:", "an:", "model"}

// exploreAt draws request i of the explore mix: distinct sweeps (and
// one in seven an optimize search) over the curve and model tiers,
// varying every axis, so each request misses the response memo while
// its curve lookups hit. Workload, tier and endpoint follow a fixed
// schedule over i, so every seed asks for the same mix of work.
func exploreAt(seed uint64, i int) Request {
	r := rng(seed, uint64(i))
	w := workloads[i%len(workloads)]
	source := exploreSources[i/len(workloads)%len(exploreSources)]
	if source != "model" {
		source += w
	}
	b := sweepBody{
		Assoc:      pick(r, []int{1, 2, 4, 8}),
		LatencyNS:  100 + 500*r.Float64(),
		TransferNS: 5 + 55*r.Float64(),
		CPUNS:      2 + 28*r.Float64(),
		HitSource:  source,
		SimRefs:    exploreRefs,
	}
	if source[:3] == "mrc" && r.IntN(5) == 0 {
		b.Mode = pick(r, []string{"model", "auto"}) // re-priced by the analytic tier
	}
	analytic := source[:3] == "an:" || b.Mode != ""
	csv := r.IntN(10) < 3
	if i/28%7 == 3 {
		b.CacheKB = subset(r, []int{1, 2, 4, 8, 16, 32}, 2, 2)
		b.LineBytes = subset(r, lineSizes, 2, 2)
		b.BusBits = []int{32, 64}
		l2 := levelBody{
			CacheKB:   subset(r, []int{64, 128, 256, 512, 1024}, 2, 2),
			LatencyNS: b.LatencyNS * (0.1 + 0.3*r.Float64()),
		}
		if r.IntN(2) == 0 {
			l2.LineBytes = subset(r, lineSizes[1:], 2, 2)
		}
		b.Levels = []levelBody{l2}
		b.AreaBudget = 1e7 * (1 + 9*r.Float64()) // above every design's area: all feasible
		return Request{Path: "/v1/optimize", CSV: csv, Body: mustJSON(b), Points: optimizePoints(b), Analytic: analytic, Kind: "optimize"}
	}
	b.CacheKB = subset(r, []int{1, 2, 4, 8, 16, 32, 64, 128, 256}, 4, 4)
	b.LineBytes = subset(r, lineSizes, 2, 2)
	b.BusBits = subset(r, []int{32, 64, 128}, 2, 2)
	if flatPoints(b) == 0 {
		b.BusBits = []int{32}
	}
	return Request{Path: "/v1/sweep", CSV: csv, Body: mustJSON(b), Points: flatPoints(b), Analytic: analytic, Kind: "sweep"}
}

// traceSeed derives request i's trace seed from the workload seed
// (splitmix64), never 0 since the server reads 0 as "default".
func traceSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// stallBody is the /v1/stall payload the generator emits.
type stallBody struct {
	Programs []string `json:"programs"`
	Refs     int      `json:"refs,omitempty"`
	Seed     uint64   `json:"seed,omitempty"`
	Features []string `json:"features"`
	CacheKB  []int    `json:"cache_kb,omitempty"`
	BetaM    []int64  `json:"beta_m,omitempty"`
	Mode     string   `json:"mode,omitempty"`
}

var stallFeatures = []string{"FS", "BL", "BNL1", "BNL2", "BNL3", "NB"}

func stallPoints(b stallBody) int {
	return len(b.Programs) * len(b.Features) * max(len(b.CacheKB), 1) * max(len(b.BetaM), 1)
}

func pickStrings(r *rand.Rand, vals []string, lo, hi int) []string {
	idx := make([]int, len(vals))
	for i := range idx {
		idx[i] = i
	}
	out := []string{}
	for _, i := range subset(r, idx, lo, hi) {
		out = append(out, vals[i])
	}
	return out
}

// simulateAt draws request i of the simulate mix: simulated sweeps,
// miss-ratio-curve sweeps and exact stall grids in turn, each over a
// trace seed no other request uses, so nothing is shared across
// requests. Kind, workload and grid shape follow a fixed schedule over
// i, sized so each kind takes roughly a third of server time.
func simulateAt(seed uint64, i int) Request {
	r := rng(seed, uint64(i))
	ts := traceSeed(seed, i)
	w := workloads[i/3%len(workloads)]
	csv := r.IntN(5) == 0
	switch i % 3 {
	case 0:
		b := sweepBody{
			CacheKB:   subset(r, []int{4, 8, 16, 32, 64}, 2, 2),
			LineBytes: []int{32, 64},
			BusBits:   []int{32},
			LatencyNS: 100 + 500*r.Float64(), TransferNS: 5 + 55*r.Float64(), CPUNS: 2 + 28*r.Float64(),
			HitSource: "sim:" + w, SimRefs: 120_000, Seed: ts,
		}
		return Request{Path: "/v1/sweep", CSV: csv, Body: mustJSON(b), Points: flatPoints(b), Kind: "sweep-sim"}
	case 1:
		b := sweepBody{
			CacheKB:   subset(r, []int{4, 8, 16, 32, 64, 128}, 4, 4),
			LineBytes: []int{32, 64},
			BusBits:   []int{32, 64},
			Assoc:     []int{1, 2, 4}[i/42%3],
			LatencyNS: 100 + 500*r.Float64(), TransferNS: 5 + 55*r.Float64(), CPUNS: 2 + 28*r.Float64(),
			HitSource: []string{"mrc:", "mrc~:"}[i/21%2] + w, SimRefs: 75_000, Seed: ts,
		}
		return Request{Path: "/v1/sweep", CSV: csv, Body: mustJSON(b), Points: flatPoints(b), Kind: "sweep-mrc"}
	default:
		b := stallBody{
			Programs: []string{programs[i/3%len(programs)]},
			Refs:     16_000,
			Seed:     ts,
			Features: stallFeatures,
			CacheKB:  subset(r, []int{4, 8, 16}, 2, 2),
			BetaM:    []int64{int64(2 + r.IntN(4)), int64(8 + r.IntN(6)), int64(16 + r.IntN(16))},
		}
		return Request{Path: "/v1/stall", CSV: csv, Body: mustJSON(b), Points: stallPoints(b), Kind: "stall"}
	}
}

// tradeoffBody is the /v1/tradeoff payload the generator emits.
type tradeoffBody struct {
	Feature  string  `json:"feature"`
	HitRatio float64 `json:"hit_ratio"`
	Alpha    float64 `json:"alpha"`
	L        float64 `json:"l"`
	D        float64 `json:"d"`
	BetaM    float64 `json:"beta_m"`
	Phi      float64 `json:"phi,omitempty"`
	Q        float64 `json:"q,omitempty"`
}

// revisitPoolSize keeps the pool below the server's 256-entry
// response memo, so after warm-up every request hits.
const revisitPoolSize = 200

// revisitKinds is the kind of each popularity rank, repeating every
// 20 ranks: 40% /v1/tradeoff, 30% /v1/sweep, 15% /v1/stall and 15%
// /v1/optimize, interleaved so the most popular ranks mix every kind.
var revisitKinds = []string{
	"tradeoff", "sweep", "tradeoff", "optimize", "stall",
	"sweep", "tradeoff", "sweep", "tradeoff", "optimize",
	"stall", "tradeoff", "sweep", "tradeoff", "sweep",
	"optimize", "tradeoff", "stall", "sweep", "tradeoff",
}

// revisitPool draws the fixed requests revisit cycles through, pool[k]
// being popularity rank k: cheap closed-form evaluations on every
// endpoint, each small enough that the whole pool fits the memo's byte
// budget. Kind, format, workload and grid shape follow a fixed
// schedule over the rank, so a seed changes the values asked for but
// not the mix of work; the top ranks carry most of the traffic.
func revisitPool(seed uint64) []Request {
	pool := make([]Request, 0, revisitPoolSize)
	seen := map[string]bool{}
	for rank := 0; rank < revisitPoolSize; rank++ {
		for j := uint64(0); ; j++ {
			req := revisitItem(rank, rng(^seed, uint64(rank)<<32|j))
			if !seen[req.key()] {
				seen[req.key()] = true
				pool = append(pool, req)
				break
			}
		}
	}
	return pool
}

func revisitItem(rank int, r *rand.Rand) Request {
	w := workloads[rank%len(workloads)]
	csv := rank%5 == 1
	switch revisitKinds[rank%len(revisitKinds)] {
	case "tradeoff":
		b := tradeoffBody{
			Feature:  []string{"bus", "stall", "wbuf", "pipe"}[rank/2%4],
			HitRatio: 0.80 + 0.19*r.Float64(),
			Alpha:    r.Float64(),
			L:        float64(pick(r, []int{16, 32, 64, 128})),
			D:        float64(pick(r, []int{4, 8})),
			BetaM:    float64(4 + r.IntN(17)),
		}
		switch b.Feature {
		case "stall":
			b.Phi = 1 + (b.L/b.D-1)*r.Float64() // φ ∈ [1, L/D]
		case "pipe":
			b.Q = float64(1 + r.IntN(4))
		}
		return Request{Path: "/v1/tradeoff", Body: mustJSON(b), Kind: "tradeoff"}
	case "sweep":
		kb := 2 + rank%3
		b := sweepBody{
			CacheKB:   subset(r, []int{2, 4, 8, 16, 32, 64}, kb, kb),
			LineBytes: subset(r, []int{16, 32, 64}, 1+rank%2, 1+rank%2),
			BusBits:   []int{32},
			LatencyNS: float64(100 + 20*r.IntN(26)), TransferNS: float64(10 + 5*r.IntN(11)), CPUNS: float64(5 + 5*r.IntN(6)),
			HitSource: []string{"model", "an:" + w}[rank/3%2],
		}
		return Request{Path: "/v1/sweep", CSV: csv, Body: mustJSON(b), Points: flatPoints(b), Analytic: b.HitSource != "model", Kind: "sweep"}
	case "stall":
		b := stallBody{
			Programs: []string{programs[rank%len(programs)]},
			Features: pickStrings(r, stallFeatures, 2+rank%5, 2+rank%5),
			BetaM:    []int64{int64(4 + 2*r.IntN(8))},
			Mode:     "model",
		}
		return Request{Path: "/v1/stall", CSV: csv, Body: mustJSON(b), Points: stallPoints(b), Analytic: true, Kind: "stall"}
	default:
		b := sweepBody{
			CacheKB:   subset(r, []int{2, 4, 8, 16}, 1+rank%2, 1+rank%2),
			LineBytes: []int{32},
			BusBits:   []int{32, 64},
			LatencyNS: float64(200 + 20*r.IntN(11)), TransferNS: 30, CPUNS: 10,
			HitSource:  "an:" + w,
			Levels:     []levelBody{{CacheKB: []int{128, 512}, LatencyNS: 60}},
			AreaBudget: 1e8,
		}
		return Request{Path: "/v1/optimize", CSV: csv, Body: mustJSON(b), Points: optimizePoints(b), Analytic: true, Kind: "optimize"}
	}
}

// zipfCDF is the cumulative distribution of a Zipf(s) draw over n
// ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for k := range cdf {
		sum += 1 / math.Pow(float64(k+1), s)
		cdf[k] = sum
	}
	for k := range cdf {
		cdf[k] /= sum
	}
	return cdf
}
