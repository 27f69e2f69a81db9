#!/usr/bin/env bash
# Builds batlifed and the benchmark from source, then runs the benchmark.
# Run from the repository root, for example:
#
#   bash perfbench/run.sh --workload cold-ladder --seed 1 --seconds 30 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory, including the Go build cache.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off

go build -o "$out/batlifed" ./cmd/batlifed
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -batlifed "$out/batlifed" -out "$out" "$@"
