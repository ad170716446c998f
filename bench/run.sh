#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the repository root
# and runs it with the given arguments, from any directory:
#
#   bash bench/run.sh --workload paper-rabid --seed 1 --seconds 30 --trace 0
#
# The Go build cache and temporary files stay under .bench_build/, and the
# build never reaches the network (the module has no dependencies outside
# the repository).
set -euo pipefail
root=$(cd "$(dirname "$0")/.." && pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local GOPROXY=off GOFLAGS=
go build -C "$root/bench" -o "$out/bench" .
exec "$out/bench" "$@"
