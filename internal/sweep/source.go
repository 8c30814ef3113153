package sweep

import (
	"fmt"
	"strings"

	"tradeoff/internal/model"
	"tradeoff/internal/trace"
)

// Tier is the engine that prices a hit source's hit ratios.
type Tier uint8

// The pricing tiers.
const (
	TierModel      Tier = iota // "model": the calibrated miss-ratio surface (internal/missratio)
	TierAnalytic               // "an:<w>": the closed-form analytic curve (internal/model)
	TierSim                    // "sim:<w>": cache simulation of the workload trace
	TierMRC                    // "mrc:<w>": the exact single-pass miss-ratio curve (internal/mrc)
	TierMRCSampled             // "mrc~:<w>": the SHARDS-sampled miss-ratio curve
)

// tierSpelling spells each tier: the whole source for TierModel, the
// prefix before the workload name for the others.
var tierSpelling = [...]string{"model", "an:", "sim:", "mrc:", "mrc~:"}

// Source is a parsed hit_source: the tier that prices it and, for all
// tiers but TierModel, the workload it prices. It is the only code
// that knows the hit_source spelling.
type Source struct {
	Tier     Tier
	Workload string
}

// ParseSource parses and validates a hit_source. A prefixed source
// must name a known workload, so a bare prefix ("mrc:") or an unknown
// name fails here rather than deep inside a run.
func ParseSource(hitSource string) (Source, error) {
	if hitSource == tierSpelling[TierModel] {
		return Source{}, nil
	}
	for t := TierAnalytic; int(t) < len(tierSpelling); t++ {
		name, ok := strings.CutPrefix(hitSource, tierSpelling[t])
		switch {
		case !ok:
			continue
		case name == "":
			return Source{}, fmt.Errorf("sweep: hit_source %q names no workload: %q must be followed by one of %s",
				hitSource, tierSpelling[t], strings.Join(trace.Workloads(), ", "))
		case len(trace.ValidWorkloads([]string{name})) > 0:
			return Source{}, fmt.Errorf("sweep: hit_source %q: unknown workload %q, want one of %s",
				hitSource, name, strings.Join(trace.Workloads(), ", "))
		}
		return Source{Tier: t, Workload: name}, nil
	}
	return Source{}, fmt.Errorf("sweep: hit_source %q, want \"model\", \"an:\", \"sim:\", \"mrc:\" or \"mrc~:<workload>\"", hitSource)
}

// String returns the canonical hit_source spelling of s.
func (s Source) String() string { return tierSpelling[s.Tier] + s.Workload }

// Resolve applies the mode knob: ModeExact keeps s, while ModeModel
// and ModeAuto re-price a workload-bearing source on the analytic
// tier. That tier covers every workload ParseSource accepts, so auto
// never needs its fallback and prices exactly like model.
func (s Source) Resolve(mode string) Source {
	if (mode == ModeModel || mode == ModeAuto) && s.Tier != TierModel {
		return Source{Tier: TierAnalytic, Workload: s.Workload}
	}
	return s
}

// ErrorBound is an analytic source's committed maximum absolute
// hit-ratio error against the exact tier (model.ErrorBound), else 0.
func (s Source) ErrorBound() float64 {
	if s.Tier != TierAnalytic {
		return 0
	}
	return model.ErrorBound(s.Workload)
}

// SourceWorkload splits a valid workload-bearing hit source into its
// prefix and workload name. It is a view over ParseSource, kept for
// e2ebench.
//
//lint:ignore unusedexport e2ebench: the benchmark splits hit sources with it
func SourceWorkload(hitSource string) (prefix, workload string, ok bool) {
	s, err := ParseSource(hitSource)
	if err != nil || s.Tier == TierModel {
		return "", "", false
	}
	return tierSpelling[s.Tier], s.Workload, true
}

// EffectiveHitSource spells ParseSource(HitSource).Resolve(Mode), the
// source the engine prices. It is kept for e2ebench.
//
//lint:ignore unusedexport e2ebench: the benchmark resolves hit sources with it
func (c Config) EffectiveHitSource() (string, error) {
	s, err := ParseSource(c.HitSource)
	return s.Resolve(c.Mode).String(), err
}
