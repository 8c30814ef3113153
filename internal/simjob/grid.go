package simjob

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"tradeoff/internal/cache"
	"tradeoff/internal/engine"
	"tradeoff/internal/memory"
	"tradeoff/internal/model"
	"tradeoff/internal/stall"
	"tradeoff/internal/sweep"
	"tradeoff/internal/trace"
)

// Grid is the JSON schema of a trace-driven stall sweep: which
// workloads to replay and which design dimensions to cross. The zero
// value of every optional field selects its documented default via
// SetDefaults. It is the wire format of POST /v1/stall, mirroring how
// sweep.Config parameterizes /v1/sweep.
type Grid struct {
	Programs []string `json:"programs"` // workload models, programs or "zipf" (default the six programs)
	Refs     int      `json:"refs"`     // references per trace (default 30000)
	Seed     uint64   `json:"seed"`     // trace seed (default 1994)

	Features   []string `json:"features"`    // stalling features (default all of Table 2)
	CacheKB    []int    `json:"cache_kb"`    // cache sizes in KiB (default [8])
	LineBytes  []int    `json:"line_bytes"`  // line sizes (default [32])
	BusBytes   []int    `json:"bus_bytes"`   // external bus widths D in bytes (default [4])
	BetaM      []int64  `json:"beta_m"`      // memory cycle times (default [10])
	WbufDepths []int    `json:"wbuf_depths"` // write-buffer depths, 0 = none (default [0])

	Assoc     int    `json:"assoc"`      // associativity (default 2; "full" is not expressible)
	WriteMiss string `json:"write_miss"` // "allocate" (default) or "around"
	Pipelined bool   `json:"pipelined"`  // pipelined memory (Eq. (9))
	Q         int64  `json:"q"`          // readiness interval when pipelined
	MSHRs     int    `json:"mshrs"`      // outstanding misses for NB (0 means 1)

	Warm bool `json:"warm"` // measure from a warmed cache (see Options.Warm)

	// Mode selects the evaluation tier like sweep.Config.Mode: "exact"
	// (default) replays every point cycle by cycle; "model" and "auto"
	// answer every point from the analytic tier (internal/model,
	// first-order stall arithmetic — see model.EstimateStall for the
	// documented accuracy budget).
	Mode string `json:"mode"`
}

// ExampleGrid is the example payload `tradeoffd` documents for
// POST /v1/stall, also exercised by the golden tests.
const ExampleGrid = `{
  "programs":   ["nasa7", "ear"],
  "refs":       20000,
  "features":   ["FS", "BL", "BNL1", "BNL2", "BNL3", "NB"],
  "cache_kb":   [8],
  "line_bytes": [32],
  "bus_bytes":  [4],
  "beta_m":     [4, 10]
}`

// SetDefaults fills zero-valued optional fields with their defaults.
func (g *Grid) SetDefaults() {
	if len(g.Programs) == 0 {
		g.Programs = trace.Programs()
	}
	if g.Refs == 0 {
		g.Refs = 30_000
	}
	if g.Seed == 0 {
		g.Seed = 1994
	}
	if len(g.Features) == 0 {
		g.Features = make([]string, 0, len(stall.Features()))
		for _, f := range stall.Features() {
			g.Features = append(g.Features, f.String())
		}
	}
	if len(g.CacheKB) == 0 {
		g.CacheKB = []int{8}
	}
	if len(g.LineBytes) == 0 {
		g.LineBytes = []int{32}
	}
	if len(g.BusBytes) == 0 {
		g.BusBytes = []int{4}
	}
	if len(g.BetaM) == 0 {
		g.BetaM = []int64{10}
	}
	if len(g.WbufDepths) == 0 {
		g.WbufDepths = []int{0}
	}
	if g.Assoc == 0 {
		g.Assoc = 2
	}
	if g.WriteMiss == "" {
		g.WriteMiss = "allocate"
	}
	if g.Mode == "" {
		g.Mode = sweep.ModeExact
	}
}

// Validate reports grids outside the engine's domain. It assumes
// SetDefaults has run. Per-point cache/memory validity (power-of-two
// geometry, legal bus widths) is checked when the point's configs are
// built, so the errors carry the exact offending combination.
func (g *Grid) Validate() error {
	if unknown := trace.ValidWorkloads(g.Programs); len(unknown) > 0 {
		return fmt.Errorf("simjob: unknown programs %v", unknown)
	}
	for _, name := range g.Features {
		if _, err := stall.ParseFeature(name); err != nil {
			return err
		}
	}
	switch {
	case g.Refs < 0:
		return fmt.Errorf("simjob: refs = %d, want >= 0", g.Refs)
	case g.Assoc < 0:
		return fmt.Errorf("simjob: assoc = %d, want >= 0", g.Assoc)
	case g.MSHRs < 0:
		return fmt.Errorf("simjob: mshrs = %d, want >= 0", g.MSHRs)
	case g.Pipelined && g.Q < 1:
		return fmt.Errorf("simjob: pipelined with q = %d, want >= 1", g.Q)
	}
	if g.WriteMiss != "allocate" && g.WriteMiss != "around" {
		return fmt.Errorf("simjob: write_miss %q, want \"allocate\" or \"around\"", g.WriteMiss)
	}
	switch g.Mode {
	case sweep.ModeExact, sweep.ModeModel, sweep.ModeAuto:
	default:
		return fmt.Errorf("simjob: mode %q, want %q, %q or %q", g.Mode, sweep.ModeExact, sweep.ModeModel, sweep.ModeAuto)
	}
	for _, d := range g.WbufDepths {
		if d < 0 {
			return fmt.Errorf("simjob: wbuf_depths entry %d, want >= 0", d)
		}
	}
	return nil
}

// Point is one enumerated design point of a grid.
type Point struct {
	Program   string `json:"program"`
	Feature   string `json:"feature"`
	CacheKB   int    `json:"cache_kb"`
	LineBytes int    `json:"line_bytes"`
	BusBytes  int    `json:"bus_bytes"`
	BetaM     int64  `json:"beta_m"`
	WbufDepth int    `json:"wbuf_depth"`
}

// PointResult pairs a design point with its measured (or modeled)
// decomposition. Source records the tier that produced it after Mode
// resolution: "replay" for a cycle-level replay, the analytic
// sweep.Source ("an:<program>") for the analytic estimate.
type PointResult struct {
	Point
	Source string       `json:"source"`
	Result stall.Result `json:"result"`
}

// Enumerate lists the grid's design points in canonical order —
// program outermost, then feature, cache size, line size, bus width,
// βm, write-buffer depth innermost. Combinations where the line does
// not span at least one bus transfer, or exceeds the cache, are
// skipped (they describe no buildable cache); every other invalid
// combination surfaces as an error at measurement time.
func (g *Grid) Enumerate() []Point {
	var pts []Point
	for _, prog := range g.Programs {
		for _, feat := range g.Features {
			for _, kb := range g.CacheKB {
				for _, line := range g.LineBytes {
					for _, bus := range g.BusBytes {
						if line < bus || line > kb<<10 {
							continue
						}
						for _, betaM := range g.BetaM {
							for _, depth := range g.WbufDepths {
								pts = append(pts, Point{
									Program: prog, Feature: feat,
									CacheKB: kb, LineBytes: line, BusBytes: bus,
									BetaM: betaM, WbufDepth: depth,
								})
							}
						}
					}
				}
			}
		}
	}
	return pts
}

// job builds the measurement job for one point.
func (g *Grid) job(p Point) (Job, error) {
	f, err := stall.ParseFeature(p.Feature)
	if err != nil {
		return Job{}, err
	}
	wm := cache.WriteAllocate
	if g.WriteMiss == "around" {
		wm = cache.WriteAround
	}
	return Job{
		Trace: TraceSpec{Program: p.Program, Seed: g.Seed, Refs: g.Refs},
		Cfg: stall.Config{
			Cache: cache.Config{
				Size: p.CacheKB << 10, LineSize: p.LineBytes,
				Assoc: g.Assoc, WriteMiss: wm, Replacement: cache.LRU,
			},
			Memory: memory.Config{
				BetaM: p.BetaM, BusWidth: p.BusBytes,
				Pipelined: g.Pipelined, Q: g.Q,
			},
			Feature:          f,
			WriteBufferDepth: p.WbufDepth,
			MSHRs:            g.MSHRs,
		},
	}, nil
}

// RunGrid enumerates the grid and evaluates every point, returning
// results in enumeration order. A replayed program is the "sim:" tier
// of its workload: when Mode resolves that onto the analytic tier,
// every point is priced inline by model.EstimateStall (microseconds,
// no pool); otherwise every point is replayed on the runner's pool.
func (r *Runner) RunGrid(ctx context.Context, g Grid, workers int) ([]PointResult, error) {
	g.SetDefaults()
	if err := g.Validate(); err != nil {
		return nil, err
	}
	pts := g.Enumerate()
	if len(pts) == 0 {
		return nil, fmt.Errorf("simjob: empty design grid (every line < D or > cache?)")
	}
	out := make([]PointResult, len(pts))
	if (sweep.Source{Tier: sweep.TierSim}).Resolve(g.Mode).Tier == sweep.TierAnalytic {
		for i, p := range pts {
			f, err := stall.ParseFeature(p.Feature)
			if err != nil {
				return nil, err
			}
			res, err := model.EstimateStall(ctx, model.StallSpec{
				Workload: p.Program, Seed: g.Seed, Refs: g.Refs,
				CacheKB: p.CacheKB, LineBytes: p.LineBytes, BusBytes: p.BusBytes,
				BetaM: p.BetaM, Assoc: g.Assoc, Feature: f,
				Pipelined: g.Pipelined, Q: g.Q,
				WriteMiss: g.WriteMiss, WbufDepth: p.WbufDepth,
			}, r.models)
			if err != nil {
				return nil, err
			}
			an := sweep.Source{Tier: sweep.TierAnalytic, Workload: p.Program}
			out[i] = PointResult{Point: p, Source: an.String(), Result: res}
		}
		return out, nil
	}
	jobs := make([]Job, len(pts))
	for i, p := range pts {
		var err error
		if jobs[i], err = g.job(p); err != nil {
			return nil, err
		}
	}
	results, err := r.Run(ctx, jobs, Options{Workers: workers, Warm: g.Warm})
	if err != nil {
		return nil, err
	}
	for i, p := range pts {
		out[i] = PointResult{Point: p, Source: "replay", Result: results[i]}
	}
	return out, nil
}

// Limits bounds the work a single grid may request — the service
// applies these to untrusted payloads. Zero fields mean "no limit".
type Limits struct {
	MaxPoints  int // design points after enumeration
	MaxRefs    int // references per trace
	MaxCacheKB int // largest simulated cache, KiB
}

// DefaultLimits is what the service enforces unless configured
// otherwise. Replays cost far more than the analytic sweep's point
// evaluations, so the point budget is tighter than sweep's.
var DefaultLimits = Limits{MaxPoints: 1024, MaxRefs: 2_000_000, MaxCacheKB: 1 << 14}

// CheckLimits reports whether the grid fits within lim. It assumes
// SetDefaults has run.
func (g *Grid) CheckLimits(lim Limits) error {
	if n := len(g.Enumerate()); lim.MaxPoints > 0 && n > lim.MaxPoints {
		return fmt.Errorf("simjob: %d design points exceeds the limit of %d", n, lim.MaxPoints)
	}
	if lim.MaxRefs > 0 && g.Refs > lim.MaxRefs {
		return fmt.Errorf("simjob: refs %d exceeds the limit of %d", g.Refs, lim.MaxRefs)
	}
	if lim.MaxCacheKB > 0 {
		for _, kb := range g.CacheKB {
			if kb > lim.MaxCacheKB {
				return fmt.Errorf("simjob: cache_kb %d exceeds the limit of %d", kb, lim.MaxCacheKB)
			}
		}
	}
	return nil
}

// ParseGrid decodes a JSON grid, applies defaults and validates it —
// the single entry point the CLI and the HTTP service share, so their
// parameter-domain checks cannot drift.
func ParseGrid(data []byte) (Grid, error) {
	var g Grid
	if err := json.Unmarshal(data, &g); err != nil {
		return Grid{}, fmt.Errorf("simjob: parsing grid: %w", err)
	}
	g.SetDefaults()
	if err := g.Validate(); err != nil {
		return Grid{}, err
	}
	return g, nil
}

// Canonical returns the canonicalized JSON encoding of the grid with
// defaults applied — a deterministic memoization key: two requests
// that differ only in field order, whitespace, or spelled-out defaults
// canonicalize identically.
func (g Grid) Canonical() ([]byte, error) {
	g.SetDefaults()
	return json.Marshal(g)
}

// WriteCSV emits one row per point result in slice order, carrying the
// full Result decomposition.
func WriteCSV(w io.Writer, rs []PointResult) error {
	header := []string{
		"program", "feature", "cache_kb", "line_bytes", "bus_bytes", "beta_m", "wbuf_depth", "source",
		"refs", "misses", "e", "cycles", "base_cycles",
		"fill_stall", "bus_wait", "flush_stall", "write_stall", "hidden_flush", "buffer_full", "conflict",
		"phi", "phi_fraction", "traffic",
	}
	return engine.WriteCSV(w, header, len(rs), func(i int) []string {
		r := &rs[i]
		return []string{
			r.Program, r.Feature,
			strconv.Itoa(r.CacheKB), strconv.Itoa(r.LineBytes), strconv.Itoa(r.BusBytes),
			strconv.FormatInt(r.BetaM, 10), strconv.Itoa(r.WbufDepth),
			r.Source,
			strconv.FormatUint(r.Result.Refs, 10),
			strconv.FormatUint(r.Result.Misses, 10),
			strconv.FormatUint(r.Result.E, 10),
			strconv.FormatInt(r.Result.Cycles, 10),
			strconv.FormatInt(r.Result.BaseCycles, 10),
			strconv.FormatInt(r.Result.FillStall, 10),
			strconv.FormatInt(r.Result.BusWait, 10),
			strconv.FormatInt(r.Result.FlushStall, 10),
			strconv.FormatInt(r.Result.WriteStall, 10),
			strconv.FormatInt(r.Result.HiddenFlush, 10),
			strconv.FormatInt(r.Result.BufferFull, 10),
			strconv.FormatInt(r.Result.Conflict, 10),
			strconv.FormatFloat(r.Result.Phi, 'f', 6, 64),
			strconv.FormatFloat(r.Result.PhiFraction, 'f', 6, 64),
			strconv.FormatUint(r.Result.Traffic, 10),
		}
	})
}
