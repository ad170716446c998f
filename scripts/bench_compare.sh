#!/usr/bin/env bash
# Router hot-path benchmark runner (CI's bench-smoke job; runnable locally
# from the repo root). Stdlib-only: go test + cmd/benchjson, no external
# benchstat.
#
#   1. run the route microbenchmarks (Reroute / RipupPass / BufferAwarePath,
#      the last with and without an incumbent) and the search-kernel
#      matrix (heap / dial / astar over Reroute and BufferAwarePath), the
#      end-to-end BenchmarkRunSuite, and the cross-backend
#      BenchmarkBackendPlan (rabid / rabid+lib / mcf),
#   2. convert the text output to JSON with cmd/benchjson,
#   3. if a baseline exists, print an old-vs-new delta table and gate the
#      default (heap) kernel's hot paths: a >10% ns/op regression of
#      BenchmarkReroute / BenchmarkRipupPass / BenchmarkBufferAwarePath[Incumbent]
#      or any */heap kernel-matrix row fails the script. benchjson disables
#      the gate automatically when the baseline was recorded on a
#      different CPU (cross-machine wall clock measures the hardware);
#      the rest of the table stays report-only — runner noise on the
#      non-default rows and macro benchmarks is not worth failing on.
#
# Usage:
#   scripts/bench_compare.sh                 # write BENCH_route.new.json, compare
#   scripts/bench_compare.sh -update        # refresh the checked-in baseline
#   BENCHTIME=0.2s scripts/bench_compare.sh # shorter timed run (CI)
#
# The allocation contracts are gated by tests
# (internal/route/alloc_test.go), which `go test ./...` already runs.
set -euo pipefail

cd "$(dirname "$0")/.."

baseline=BENCH_route.json
benchtime=${BENCHTIME:-1s}
suite_benchtime=${SUITE_BENCHTIME:-1x}
update=0
[ "${1:-}" = "-update" ] && update=1

workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

go build -o "$workdir/benchjson" ./cmd/benchjson

echo "== route microbenchmarks (benchtime=$benchtime)" >&2
go test -run '^$' -bench 'BenchmarkReroute$|BenchmarkRipupPass$|BenchmarkRipupPassParallel$|BenchmarkBufferAwarePath$|BenchmarkBufferAwarePathIncumbent$' \
  -benchmem -benchtime "$benchtime" ./internal/route | tee "$workdir/bench.txt" >&2

echo "== search-kernel matrix (benchtime=$benchtime)" >&2
go test -run '^$' -bench 'BenchmarkRerouteKernel$|BenchmarkRerouteKernelAlpha1$|BenchmarkBufferAwarePathKernel$' \
  -benchmem -benchtime "$benchtime" ./internal/route | tee -a "$workdir/bench.txt" >&2

echo "== end-to-end suite benchmark (benchtime=$suite_benchtime)" >&2
go test -run '^$' -bench 'BenchmarkRunSuite$|BenchmarkRunSuiteSteiner$' \
  -benchmem -benchtime "$suite_benchtime" -timeout 20m . | tee -a "$workdir/bench.txt" >&2

echo "== backend comparison benchmark (benchtime=$suite_benchtime)" >&2
go test -run '^$' -bench 'BenchmarkBackendPlan$' \
  -benchmem -benchtime "$suite_benchtime" -timeout 20m . | tee -a "$workdir/bench.txt" >&2

if [ "$update" = 1 ]; then
  "$workdir/benchjson" -o "$baseline" < "$workdir/bench.txt"
  echo "baseline refreshed: $baseline" >&2
  exit 0
fi

new=BENCH_route.new.json
"$workdir/benchjson" -o "$new" < "$workdir/bench.txt"
echo "wrote $new" >&2

if [ -f "$baseline" ]; then
  # Gate the default kernel's hot paths at 10%; everything else (parallel
  # variants, non-default kernels, macro benchmarks) is report-only.
  "$workdir/benchjson" -compare -maxregress 10 \
    -gate '^(BenchmarkReroute|BenchmarkRipupPass|BenchmarkBufferAwarePath|BenchmarkBufferAwarePathIncumbent)$|Kernel(Alpha1)?/heap$' \
    "$baseline" "$new"
else
  echo "no baseline ($baseline) checked in; run with -update to create one" >&2
fi
