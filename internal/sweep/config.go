// Package sweep is the design-space sweep engine: it enumerates a
// cache-size × line-size × bus-width space from a Config, evaluates
// each design's hit ratio (analytic model, cache simulation, or a
// single-pass miss-ratio curve — internal/mrc), mean memory delay per
// reference, chip area (rbe) and package pins, and flags the
// Pareto-efficient designs in (delay, area, pins).
//
// The engine is shared by the sweep CLI (cmd/sweep) and the evaluation
// service (internal/service, cmd/tradeoffd). Evaluation runs on a
// bounded worker pool sized by Workers (default runtime.NumCPU());
// output ordering is deterministic — identical to a serial sweep —
// regardless of worker completion order.
package sweep

import (
	"encoding/json"
	"fmt"

	"tradeoff/internal/mrc"
)

// Config is the JSON schema of a design-space sweep. The zero value of
// every optional field selects its documented default via SetDefaults.
type Config struct {
	CacheKB    []int   `json:"cache_kb"`     // cache sizes in KiB
	LineBytes  []int   `json:"line_bytes"`   // line sizes
	BusBits    []int   `json:"bus_bits"`     // external data bus widths in bits
	Assoc      int     `json:"assoc"`        // associativity (default 2)
	LatencyNS  float64 `json:"latency_ns"`   // memory access latency
	TransferNS float64 `json:"transfer_ns"`  // one bus transfer, any width
	CPUNS      float64 `json:"cpu_ns"`       // processor cycle time
	AddrBits   int     `json:"addr_bits"`    // address bus width (default 32)
	CtrlPins   int     `json:"control_pins"` // control pin allowance (default 40)
	HitSource  string  `json:"hit_source"`   // pricing tier and workload, parsed by ParseSource (default "model")
	Mode       string  `json:"mode"`         // "exact", "model" or "auto" (default "exact")
	SimRefs    int     `json:"sim_refs"`     // references per simulated point (default 200000)
	Seed       uint64  `json:"seed"`
	MRCRate    float64 `json:"mrc_rate"`   // mrc~: initial sampling rate (default 0.1)
	MRCBudget  int     `json:"mrc_budget"` // mrc~: max tracked blocks (default 8192)

	// Levels adds cache levels below the first: entry i describes
	// level i+2's axes (the top-level CacheKB/LineBytes/BusBits axes
	// describe L1). Empty means the classic single-level sweep; the
	// field is omitted from canonical keys then, so existing flat
	// configs memoize — and golden-test — identically.
	Levels []LevelAxes `json:"levels,omitempty"`
}

// LevelAxes is one additional cache level's slice of the design space.
// Combinations that break hierarchy monotonicity (a level smaller than
// the one above it, or with a shorter line) are skipped at enumeration
// rather than rejected, so coarse per-level axes compose freely.
type LevelAxes struct {
	CacheKB   []int `json:"cache_kb"`             // level capacities in KiB
	LineBytes []int `json:"line_bytes,omitempty"` // empty: inherit the line above
	Assoc     int   `json:"assoc,omitempty"`      // 0: inherit the top-level assoc
	// LatencyNS is the level's access latency; it must be positive,
	// non-decreasing with depth, and at most the memory latency_ns
	// (deeper must not be faster than shallower, and no cache level
	// slower than memory itself).
	LatencyNS float64 `json:"latency_ns"`
}

// Evaluation modes: how the mode knob reinterprets hit_source.
// ModeExact prices it as written; ModeModel and ModeAuto re-price any
// workload-bearing source on the analytic tier (internal/model).
// Source.Resolve is the rule.
const (
	ModeExact = "exact"
	ModeModel = "model"
	ModeAuto  = "auto"
)

// ExampleConfig is a commented-out-free example configuration, printed
// by `sweep -example` and used by the golden tests.
const ExampleConfig = `{
  "cache_kb":    [4, 8, 16, 32, 64],
  "line_bytes":  [16, 32, 64],
  "bus_bits":    [32, 64],
  "assoc":       2,
  "latency_ns":  360,
  "transfer_ns": 60,
  "cpu_ns":      30,
  "hit_source":  "model"
}`

// SetDefaults fills zero-valued optional fields with their defaults.
func (c *Config) SetDefaults() {
	if c.Assoc == 0 {
		c.Assoc = 2
	}
	if c.AddrBits == 0 {
		c.AddrBits = 32
	}
	if c.CtrlPins == 0 {
		c.CtrlPins = 40
	}
	if c.HitSource == "" {
		c.HitSource = "model"
	}
	if c.Mode == "" {
		c.Mode = ModeExact
	}
	if c.SimRefs == 0 {
		c.SimRefs = 200_000
	}
	if c.Seed == 0 {
		c.Seed = 1994
	}
	def := mrc.DefaultSampler()
	if c.MRCRate == 0 {
		c.MRCRate = def.Rate
	}
	if c.MRCBudget == 0 {
		c.MRCBudget = def.Budget
	}
	for i := range c.Levels {
		if c.Levels[i].Assoc == 0 {
			c.Levels[i].Assoc = c.Assoc
		}
	}
}

// Validate reports configurations outside the engine's domain. It
// assumes SetDefaults has run.
func (c *Config) Validate() error {
	switch {
	case len(c.CacheKB) == 0 || len(c.LineBytes) == 0 || len(c.BusBits) == 0:
		return fmt.Errorf("sweep: cache_kb, line_bytes and bus_bits must be non-empty")
	case c.LatencyNS <= 0 || c.TransferNS <= 0 || c.CPUNS <= 0:
		return fmt.Errorf("sweep: latency_ns, transfer_ns and cpu_ns must be positive")
	case c.Assoc < 0:
		return fmt.Errorf("sweep: assoc = %d, want >= 0", c.Assoc)
	case c.AddrBits <= 0 || c.AddrBits > 128:
		return fmt.Errorf("sweep: addr_bits = %d, want in (0, 128]", c.AddrBits)
	case c.CtrlPins < 0:
		return fmt.Errorf("sweep: control_pins = %d, want >= 0", c.CtrlPins)
	case c.SimRefs < 0:
		return fmt.Errorf("sweep: sim_refs = %d, want >= 0", c.SimRefs)
	}
	for _, kb := range c.CacheKB {
		if kb <= 0 {
			return fmt.Errorf("sweep: cache_kb entry %d, want > 0", kb)
		}
	}
	for _, l := range c.LineBytes {
		if l <= 0 {
			return fmt.Errorf("sweep: line_bytes entry %d, want > 0", l)
		}
	}
	for _, b := range c.BusBits {
		if b <= 0 || b%8 != 0 {
			return fmt.Errorf("sweep: bus_bits entry %d, want a positive multiple of 8", b)
		}
	}
	if _, err := ParseSource(c.HitSource); err != nil {
		return err
	}
	switch c.Mode {
	case ModeExact, ModeModel, ModeAuto:
	default:
		return fmt.Errorf("sweep: mode %q, want %q, %q or %q", c.Mode, ModeExact, ModeModel, ModeAuto)
	}
	if err := (mrc.SamplerConfig{Rate: c.MRCRate, Budget: c.MRCBudget}).Validate(); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	prevLatency := 0.0
	for i, lv := range c.Levels {
		if len(lv.CacheKB) == 0 {
			return fmt.Errorf("sweep: levels[%d].cache_kb must be non-empty", i)
		}
		for _, kb := range lv.CacheKB {
			if kb <= 0 {
				return fmt.Errorf("sweep: levels[%d].cache_kb entry %d, want > 0", i, kb)
			}
		}
		for _, l := range lv.LineBytes {
			if l <= 0 {
				return fmt.Errorf("sweep: levels[%d].line_bytes entry %d, want > 0", i, l)
			}
		}
		if lv.Assoc < 0 {
			return fmt.Errorf("sweep: levels[%d].assoc = %d, want >= 0", i, lv.Assoc)
		}
		if lv.LatencyNS <= 0 || lv.LatencyNS < prevLatency || lv.LatencyNS > c.LatencyNS {
			return fmt.Errorf("sweep: levels[%d].latency_ns = %g, want positive, non-decreasing with depth, and at most latency_ns = %g",
				i, lv.LatencyNS, c.LatencyNS)
		}
		prevLatency = lv.LatencyNS
	}
	return nil
}

// Limits bounds the work a single sweep may request — the service
// applies these to untrusted payloads so a request cannot allocate an
// absurd simulated cache or monopolize the pool. Zero fields mean
// "no limit" for that dimension.
type Limits struct {
	MaxPoints  int // design points after enumeration
	MaxCacheKB int // largest simulated cache, KiB
	MaxSimRefs int // simulated references per point
}

// DefaultLimits is what the service enforces unless configured
// otherwise: generous for interactive use, stingy for abuse.
var DefaultLimits = Limits{MaxPoints: 4096, MaxCacheKB: 1 << 16, MaxSimRefs: 5_000_000}

// CheckLimits reports whether the configuration fits within lim.
// It assumes SetDefaults has run.
func (c *Config) CheckLimits(lim Limits) error {
	n := len(c.CacheKB) * len(c.LineBytes) * len(c.BusBits)
	for _, lv := range c.Levels {
		lines := len(lv.LineBytes)
		if lines == 0 {
			lines = 1 // inherited line: one choice per combination
		}
		n *= len(lv.CacheKB) * lines
	}
	if lim.MaxPoints > 0 && n > lim.MaxPoints {
		return fmt.Errorf("sweep: %d design points exceeds the limit of %d", n, lim.MaxPoints)
	}
	if lim.MaxCacheKB > 0 {
		for _, kb := range c.CacheKB {
			if kb > lim.MaxCacheKB {
				return fmt.Errorf("sweep: cache_kb %d exceeds the limit of %d", kb, lim.MaxCacheKB)
			}
		}
		for i, lv := range c.Levels {
			for _, kb := range lv.CacheKB {
				if kb > lim.MaxCacheKB {
					return fmt.Errorf("sweep: levels[%d].cache_kb %d exceeds the limit of %d", i, kb, lim.MaxCacheKB)
				}
			}
		}
	}
	if lim.MaxSimRefs > 0 && c.SimRefs > lim.MaxSimRefs {
		return fmt.Errorf("sweep: sim_refs %d exceeds the limit of %d", c.SimRefs, lim.MaxSimRefs)
	}
	return nil
}

// ParseConfig decodes a JSON sweep configuration, applies defaults and
// validates it. This is the single entry point both the CLI and the
// HTTP service use, so their parameter-domain checks cannot drift.
func ParseConfig(data []byte) (Config, error) {
	var cfg Config
	if err := json.Unmarshal(data, &cfg); err != nil {
		return Config{}, fmt.Errorf("sweep: parsing config: %w", err)
	}
	cfg.SetDefaults()
	if err := cfg.Validate(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Canonical returns the canonicalized JSON encoding of the config with
// defaults applied — a deterministic memoization key: two requests that
// differ only in field order, whitespace, or spelled-out defaults
// canonicalize identically.
func (c Config) Canonical() ([]byte, error) {
	c.SetDefaults()
	return json.Marshal(c)
}
