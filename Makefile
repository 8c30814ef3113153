# Convenience targets for the tradeoff reproduction.

GO ?= go

.PHONY: all build vet lint lint-fast test test-short race e2ebench-check bench bench-smoke bench-stall bench-mrc bench-record trace-smoke flight-smoke obs-smoke figures figures-fast report examples serve clean

all: build lint test race e2ebench-check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...
	gofmt -l . | tee /dev/stderr | wc -l | grep -q '^0$$'

# Full static analysis: go vet + gofmt (the vet target) plus the
# repo's own nine-analyzer tradeoffvet suite (parameter domains, float
# discipline, context propagation, error handling, metric hygiene,
# span lifecycle, locking discipline, deterministic output order,
# hot-path allocation budgets).
lint: vet
	$(GO) run ./cmd/tradeoffvet ./...

# Just the tradeoffvet suite — skips go vet and gofmt for a fast
# inner-loop check while iterating on analyzer findings.
lint-fast:
	$(GO) run ./cmd/tradeoffvet ./...

# -shuffle=on randomizes test (and subtest) execution order so hidden
# inter-test coupling — shared caches, package-level state — surfaces
# in CI instead of in production; the failure log prints the seed.
test:
	$(GO) test -shuffle=on ./...

test-short:
	$(GO) test -short -shuffle=on ./...

# Race-detector pass over every package (the concurrent subsystems —
# sweep pool + service — are where it bites, but regressions can creep
# in anywhere).
race:
	$(GO) test -race ./...

# The end-to-end benchmark (e2ebench/) is a separate module that
# compiles against this one, so a main-module API change that breaks it
# would otherwise only surface when the benchmark runs. Vet and test it
# here (a few seconds) without touching its files.
e2ebench-check:
	$(GO) -C e2ebench vet ./...
	$(GO) -C e2ebench test ./...

# Run the HTTP evaluation service on :8080.
serve:
	$(GO) run ./cmd/tradeoffd

bench:
	$(GO) test -bench=. -benchmem ./...

# Smoke-run the serial-vs-parallel benchmark pairs that sit on the
# shared engine.Map pool (design-space sweep, trace-replay stall sweep,
# cached service handler) with a single iteration; CI uses this to keep
# them compiling and executable without paying for real measurement.
bench-smoke:
	$(GO) test -run=NONE -bench='BenchmarkSweepSerial|BenchmarkSweepParallel|BenchmarkTradeoffHandlerCached' -benchtime=1x .
	$(GO) test -run=NONE -bench='BenchmarkStallSweep' -benchtime=1x ./internal/simjob
	$(GO) test -run=NONE -bench='BenchmarkSweepSim$$|BenchmarkSweepMRC' -benchtime=1x .

# Back-compat alias for the stall-sweep half of bench-smoke.
bench-stall:
	$(GO) test -run=NONE -bench='BenchmarkStallSweep' -benchtime=1x ./internal/simjob

# Race the 64-point sweep grid under re-simulation ("sim:ear", one
# replay of the shared trace per point) against the miss-ratio-curve
# sources ("mrc:ear" and "mrc~:ear", one pass per line size): the
# internal/mrc headline numbers.
bench-mrc:
	$(GO) test -run=NONE -bench='BenchmarkSweepSim$$|BenchmarkSweepMRC' -benchmem .

# Re-measure the headline benchmarks and refresh the committed
# baseline; CI diffs against it with `benchjson -compare`
# (non-blocking).
bench-record:
	$(GO) run ./cmd/benchjson -o BENCH_sweep.json

# Smoke-run the span exporter: sweep the example design space with
# -trace and validate the resulting Chrome trace_event JSON with
# cmd/tracecheck (well-formed array, one span per evaluated point; the
# example grid has 30). CI runs this non-blocking, like bench-smoke.
trace-smoke:
	mkdir -p out
	$(GO) run ./cmd/sweep -example > out/trace-smoke-space.json
	$(GO) run ./cmd/sweep -config out/trace-smoke-space.json -o out/trace-smoke.csv -trace out/trace-smoke.json
	$(GO) run ./cmd/tracecheck -min 30 out/trace-smoke.json

# Boot tradeoffd, drive traffic, dump the always-on flight recorder
# and validate the B/E trace_event JSON with cmd/tracecheck.
flight-smoke:
	sh scripts/obs_smoke.sh flight

# The full observability smoke: flight-smoke plus /metrics/history,
# /debug/slow, /debug/dash and the tradeoffd_slo_* gauges, all against
# a live server. CI runs this non-blocking, like bench-smoke.
obs-smoke:
	sh scripts/obs_smoke.sh

# Regenerate every paper artifact into out/ (full scale; minutes).
figures:
	$(GO) run ./cmd/figures -print=false -out out

# Same, at test scale (seconds).
figures-fast:
	$(GO) run ./cmd/figures -fast -print=false -out out

# One markdown report of every artifact.
report:
	$(GO) run ./cmd/report -o REPORT.md

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/buswidth
	$(GO) run ./examples/pipelined
	$(GO) run ./examples/linesize
	$(GO) run ./examples/stallfeatures
	$(GO) run ./examples/designspace
	$(GO) run ./examples/hierarchy

clean:
	rm -rf out
