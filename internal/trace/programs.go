package trace

import "fmt"

// Program names for the six SPEC92 workload models used by the paper's
// Figure 1 (average stalling factors). See DESIGN.md §4 for why these
// synthetic models substitute for the original traces.
const (
	Nasa7   = "nasa7"   // vectorizable FP kernels: long unit-stride sweeps
	Swm256  = "swm256"  // shallow-water model: 2-D grid stencils
	Wave5   = "wave5"   // particle-in-cell: gather/scatter + field sweeps
	Ear     = "ear"     // ear model: filter chains over modest working sets
	Doduc   = "doduc"   // Monte-Carlo reactor: branchy, poor spatial locality
	Hydro2D = "hydro2d" // Navier-Stokes: 2-D stencils over large grids
)

// Programs lists the six SPEC92-like workload model names in the order
// the paper reports them.
func Programs() []string {
	return []string{Nasa7, Swm256, Wave5, Ear, Doduc, Hydro2D}
}

// NewProgram returns the synthetic workload model for one of the six
// SPEC92 program names, seeded deterministically from seed. It returns
// an error for unknown names. The resulting Source is infinite; take n
// references with Collect. The blend recipes live in SpecFor (spec.go), which both
// this constructor and the analytic model tier read.
func NewProgram(name string, seed uint64) (Source, error) {
	if name == Zipf {
		return nil, fmt.Errorf("trace: unknown program %q (want one of %v)", name, Programs())
	}
	spec, err := SpecFor(name, seed)
	if err != nil {
		return nil, err
	}
	return spec.Source(), nil
}

// MustProgram is NewProgram but panics on an unknown name. It is for
// tests and benchmarks where the name is a compile-time constant.
func MustProgram(name string, seed uint64) Source {
	src, err := NewProgram(name, seed)
	if err != nil {
		panic(err)
	}
	return src
}
