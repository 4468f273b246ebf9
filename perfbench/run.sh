#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it. Run it from
# the repository root; every argument goes to the benchmark:
#
#   bash perfbench/run.sh --workload query-cold --seed 1 --seconds 25 --trace 0
#
# Build products and Go's build cache stay under .bench_build/ in the
# checkout. Build output goes to stderr, so the benchmark's result stays the
# last line of stdout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOTMPDIR="$out" GOPATH="$out/gopath" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
(cd "$root/perfbench" && go build -o "$out/perfbench" .) 1>&2
exec "$out/perfbench" "$@"
