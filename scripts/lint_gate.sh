#!/usr/bin/env bash
# lint_gate.sh — the exact static-analysis gate CI runs, reproducible
# locally. One rabidlint invocation covers all three layers:
#
#   * the six intraprocedural checks (maprange, wallclock, globalrand,
#     floateq, narrowcast, errdrop),
#   * the two interprocedural checks (transitive taint with call paths,
#     ctxflow),
#   * the compiler-backed escape gate (-escape) over the hot set in
#     internal/lint/hotset.txt.
#
# Outputs: rabidlint-findings.json (machine-readable findings, written
# even when the gate fails) and rabidlint.sarif (for code-host inline
# annotation). Exit status is rabidlint's: 0 clean, 1 findings, 2 error.
set -euo pipefail

cd "$(dirname "$0")/.."

# Warm the build cache before the escape gate: `go build -gcflags=-m`
# replays its diagnostics from the cache, so the -escape pass costs one
# compile, not two.
go build ./...

# pipefail (set above) keeps rabidlint's exit-1-on-findings through the
# tee; without it the pipeline would report tee's status instead.
go run ./cmd/rabidlint -escape -json -sarif rabidlint.sarif ./... |
	tee rabidlint-findings.json
