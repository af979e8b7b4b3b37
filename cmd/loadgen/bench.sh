#!/usr/bin/env bash
# Entry point of the repository benchmark. Run it from the repository
# root; every argument is passed to the loadgen binary, e.g.
#
#   bash cmd/loadgen/bench.sh --workload hot-cache --seed 1 --seconds 20 --trace 0
#   bash cmd/loadgen/bench.sh -seed 1 -o r.json          # all four workloads
#   bash cmd/loadgen/bench.sh compare base/*.json change/*.json
#
# Everything the build and the run write stays under .bench_build/ in
# the current directory: the Go build cache, temporary files and both
# binaries. cmd/loadgen is a module of its own (go.mod here) that takes
# the solver from ../.. through a replace directive, so the root module's
# `go test ./...` never runs the benchmark.
set -euo pipefail

if [ ! -f go.mod ] || [ ! -d cmd/serve ]; then
	echo "bench.sh: run from the repository root (go.mod and cmd/serve not found)" >&2
	exit 2
fi
command -v go >/dev/null 2>&1 || PATH="$PATH:/usr/local/go/bin"

out="$PWD/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=

go build -C cmd/loadgen -o "$out/loadgen" .
exec "$out/loadgen" "$@"
