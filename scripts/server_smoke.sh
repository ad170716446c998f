#!/usr/bin/env bash
# Server smoke test (CI's server-smoke job; runnable locally from the repo
# root). End-to-end over a real daemon:
#
#   1. start rabidd with a run journal and an access log attached and wait
#      for /v1/healthz,
#   2. POST a suite circuit to /v1/plan twice — the first response must be
#      a cache miss, the second a hit, and the bodies byte-identical (the
#      content-addressed cache's soundness claim); then POST a whitespace-
#      reformatted copy, which is not recalled by its bytes but must still
#      resolve to the same key: a hit with the same ETag and body — then
#      plan the same circuit through the rabid+lib and mcf backends and
#      require three pairwise-distinct ETags (engine identity is part of
#      the content address),
#   3. submit a second circuit as an async job (POST /v1/jobs), stream its
#      SSE event feed to completion with curl -N, and require the terminal
#      "done" frame plus a done status with an embedded result,
#   4. replay the journal with cmd/journal and require every recorded
#      digest (content key, result, event stream) to be reproduced,
#   5. scrape /v1/metricz and validate it with cmd/metricscheck, including
#      the -quantiles gate (finite monotone p50/p95/p99 per histogram),
#   6. require a non-empty structured access log carrying request ids,
#   7. SIGTERM the daemon and require a clean drain: exit status 0.
#
# Set SMOKE_ARTIFACTS to a directory to keep the access log, journal, and
# metricz scrape after the run (CI uploads them as artifacts).
set -euo pipefail

addr=127.0.0.1:18080
workdir=$(mktemp -d)
pid=
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  if [ -n "${SMOKE_ARTIFACTS:-}" ]; then
    mkdir -p "$SMOKE_ARTIFACTS"
    cp -f "$workdir"/runs.jsonl "$workdir"/access.jsonl "$workdir"/metricz.json "$SMOKE_ARTIFACTS"/ 2>/dev/null || true
  fi
  rm -rf "$workdir"
}
trap cleanup EXIT

go build -o "$workdir/rabidd" ./cmd/rabidd
go build -o "$workdir/genbench" ./cmd/genbench
go build -o "$workdir/metricscheck" ./cmd/metricscheck
go build -o "$workdir/journal" ./cmd/journal

"$workdir/genbench" -bench apte -grid 10x11 -o "$workdir/apte.json"
printf '{"circuit":%s,"timeout_ms":120000}' "$(cat "$workdir/apte.json")" \
  > "$workdir/req.json"
# A second, distinct circuit for the async job so its run is a fresh
# pipeline execution (recording an event stream in the journal), not a
# cache hit on the sync plans above.
"$workdir/genbench" -bench apte -grid 9x10 -o "$workdir/apte2.json"
printf '{"circuit":%s,"timeout_ms":120000}' "$(cat "$workdir/apte2.json")" \
  > "$workdir/jobreq.json"

"$workdir/rabidd" -addr "$addr" \
  -journal "$workdir/runs.jsonl" -access-log "$workdir/access.jsonl" &
pid=$!

for _ in $(seq 1 100); do
  curl -sf "http://$addr/v1/healthz" >/dev/null 2>&1 && break
  kill -0 "$pid" 2>/dev/null || { echo "rabidd died during startup" >&2; exit 1; }
  sleep 0.1
done
curl -sf "http://$addr/v1/healthz" >/dev/null

curl -sf -D "$workdir/h1.txt" -o "$workdir/r1.json" \
  -X POST --data-binary @"$workdir/req.json" "http://$addr/v1/plan"
curl -sf -D "$workdir/h2.txt" -o "$workdir/r2.json" \
  -X POST --data-binary @"$workdir/req.json" "http://$addr/v1/plan"

grep -qi '^x-cache: miss' "$workdir/h1.txt" || {
  echo "first plan was not a cache miss:"; cat "$workdir/h1.txt"; exit 1; }
grep -qi '^x-cache: hit' "$workdir/h2.txt" || {
  echo "second plan was not a cache hit:"; cat "$workdir/h2.txt"; exit 1; }
cmp "$workdir/r1.json" "$workdir/r2.json" || {
  echo "cached response is not byte-identical to the fresh one"; exit 1; }
grep -qi '^x-request-id: ' "$workdir/h1.txt" || {
  echo "plan response carries no X-Request-ID:"; cat "$workdir/h1.txt"; exit 1; }

etag() { sed -n 's/^[Ee][Tt]ag: *//p' "$1" | tr -d '\r'; }

# --- a reformatted re-request: the same request with a space after the
# first '{' is new bytes, so it is parsed, not recalled, and must resolve
# to the same content key.
{ printf '{ '; tail -c +2 "$workdir/req.json"; } > "$workdir/req_spaced.json"
curl -sf -D "$workdir/h3.txt" -o "$workdir/r3.json" \
  -X POST --data-binary @"$workdir/req_spaced.json" "http://$addr/v1/plan"
grep -qi '^x-cache: hit' "$workdir/h3.txt" || {
  echo "reformatted plan was not a cache hit:"; cat "$workdir/h3.txt"; exit 1; }
[ "$(etag "$workdir/h3.txt")" = "$(etag "$workdir/h1.txt")" ] || {
  echo "reformatted plan changed the ETag"; exit 1; }
cmp "$workdir/r1.json" "$workdir/r3.json" || {
  echo "reformatted plan's response is not byte-identical to the fresh one"; exit 1; }

# --- planning backends: the same circuit through two more engines must
# plan successfully and mint distinct content addresses (ETags) — the
# engines can never alias in the cache.
for be in rabid+lib mcf; do
  printf '{"circuit":%s,"params":{"backend":"%s"},"timeout_ms":120000}' \
    "$(cat "$workdir/apte.json")" "$be" > "$workdir/req_be.json"
  curl -sf -D "$workdir/h_$be.txt" -o "$workdir/r_$be.json" \
    -X POST --data-binary @"$workdir/req_be.json" "http://$addr/v1/plan"
done
e_default=$(etag "$workdir/h1.txt")
e_lib=$(etag "$workdir/h_rabid+lib.txt")
e_mcf=$(etag "$workdir/h_mcf.txt")
[ -n "$e_lib" ] && [ -n "$e_mcf" ] || {
  echo "backend plans returned no ETag"; exit 1; }
if [ "$e_lib" = "$e_default" ] || [ "$e_mcf" = "$e_default" ] || [ "$e_lib" = "$e_mcf" ]; then
  echo "backend ETags alias: default=$e_default rabid+lib=$e_lib mcf=$e_mcf"; exit 1
fi

# --- async job: submit, stream events live, await the terminal status ---
curl -sf -o "$workdir/job.json" \
  -X POST --data-binary @"$workdir/jobreq.json" "http://$addr/v1/jobs"
job_id=$(sed -n 's/.*"id":"\([0-9a-f]*\)".*/\1/p' "$workdir/job.json")
[ -n "$job_id" ] || { echo "job submit returned no id:"; cat "$workdir/job.json"; exit 1; }

# curl -N streams until the server closes the feed after the done frame.
curl -sfN -o "$workdir/events.sse" "http://$addr/v1/jobs/$job_id/events"
grep -q '^event: done' "$workdir/events.sse" || {
  echo "SSE stream did not end with a done frame:"; tail "$workdir/events.sse"; exit 1; }
grep -q '^data: {"k":' "$workdir/events.sse" || {
  echo "SSE stream carried no telemetry events:"; head "$workdir/events.sse"; exit 1; }

curl -sf -o "$workdir/jobstatus.json" "http://$addr/v1/jobs/$job_id"
grep -q '"state":"done"' "$workdir/jobstatus.json" || {
  echo "job did not finish done:"; cat "$workdir/jobstatus.json"; exit 1; }
grep -q '"result":' "$workdir/jobstatus.json" || {
  echo "done job embeds no result:"; cat "$workdir/jobstatus.json"; exit 1; }

# --- journal: list, then replay every recorded run and verify digests ---
"$workdir/journal" -file "$workdir/runs.jsonl" list
"$workdir/journal" -file "$workdir/runs.jsonl" replay || {
  echo "journal replay diverged from the recorded digests"; exit 1; }

curl -sf -o "$workdir/metricz.json" "http://$addr/v1/metricz"
"$workdir/metricscheck" -quantiles "$workdir/metricz.json"
grep -q '"http.latency_ms.POST /v1/plan"' "$workdir/metricz.json" || {
  echo "metricz carries no per-route latency histogram"; exit 1; }

# --- access log: one structured line per request, each with an id ---
[ -s "$workdir/access.jsonl" ] || { echo "access log is empty" >&2; exit 1; }
grep -q '"route":"POST /v1/jobs"' "$workdir/access.jsonl" || {
  echo "access log has no job-submit line"; exit 1; }
if grep -vq '"id":"' "$workdir/access.jsonl"; then
  echo "access log has lines without request ids"; exit 1; fi

kill -TERM "$pid"
wait "$pid" || { echo "rabidd drain exited nonzero" >&2; exit 1; }
pid=
echo "server smoke OK: miss->hit byte-identical (reformatted too), job streamed to done, journal replay verified, metricz quantiles valid, access log populated, clean drain"
