package trace

import "sort"

// Zipf names the synthetic independent-reference workload accepted
// alongside the six SPEC92-like programs wherever a workload name is
// parsed (sweep hit sources, /v1/stall grids, miss-ratio specs).
const Zipf = "zipf"

// Workloads lists every named workload: the six programs plus "zipf".
func Workloads() []string {
	return append(Programs(), Zipf)
}

// NewWorkload returns the named workload's source, seeded
// deterministically from seed. "zipf" selects the Zipf-popularity
// generator with the parameters the sweep engine has always used for
// its sim:zipf hit source; any other name resolves via NewProgram.
// The resulting Source is infinite; take n references with Collect.
func NewWorkload(name string, seed uint64) (Source, error) {
	spec, err := SpecFor(name, seed)
	if err != nil {
		return nil, err
	}
	return spec.Source(), nil
}

// MustWorkload is NewWorkload but panics on an unknown name, for tests
// and benchmarks where the name is a compile-time constant.
func MustWorkload(name string, seed uint64) Source {
	src, err := NewWorkload(name, seed)
	if err != nil {
		panic(err)
	}
	return src
}

// ValidWorkloads reports whether every name in names is a known
// workload, returning the sorted list of unknown names otherwise.
func ValidWorkloads(names []string) (unknown []string) {
	known := make(map[string]bool, 7)
	for _, w := range Workloads() {
		known[w] = true
	}
	for _, n := range names {
		if !known[n] {
			unknown = append(unknown, n)
		}
	}
	sort.Strings(unknown)
	return unknown
}
