#!/usr/bin/env bash
# Builds tradeoffd and the e2ebench program from the checkout this is
# run in, then runs e2ebench with the given arguments, e.g.
#
#   bash e2ebench/run.sh --workload explore --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the checkout. Build products, the Go build
# cache and the Go home directory all stay under .bench_build/.
set -euo pipefail

if [[ ! -f go.mod || ! -d cmd/tradeoffd || ! -f e2ebench/go.mod ]]; then
	echo "e2ebench: run from the root of a tradeoff checkout (go.mod, cmd/tradeoffd, e2ebench/)" >&2
	exit 2
fi

out="$PWD/.bench_build"
mkdir -p "$out/home"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" HOME="$out/home" XDG_CONFIG_HOME="$out/home/.config"
export GOFLAGS= GOWORK=off GOTOOLCHAIN=local GOPROXY=off

go build -o "$out/tradeoffd" ./cmd/tradeoffd
(cd e2ebench && go build -o "$out/e2ebench" .)
exec "$out/e2ebench" -tradeoffd "$out/tradeoffd" "$@"
