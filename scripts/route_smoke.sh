#!/usr/bin/env bash
# route_smoke.sh — CI smoke for fleet mode (docs/ROUTING.md).
#
# Boots two real race-instrumented vqserve replicas behind a
# race-instrumented vqroute and asserts the router tier end to end
# across actual processes:
#
#   routing      a /diagnose batch through the router answers every row
#                with a classification, spread across both replicas
#   rollout      a staged model rollout (canary → hash verify → fan out)
#                completes with 200 and both replicas converge on the
#                new snapshot hash
#   failover     SIGKILLing one replica mid-fleet loses no rows: the
#                next batch still answers everything, the router records
#                a failover, and the health loop ejects the dead replica
#   shed-vs-503  with the whole fleet gone the router answers 503
set -euo pipefail
cd "$(dirname "$0")/.."

A_ADDR="${ROUTE_SMOKE_A:-127.0.0.1:18701}"
B_ADDR="${ROUTE_SMOKE_B:-127.0.0.1:18702}"
R_ADDR="${ROUTE_SMOKE_R:-127.0.0.1:18710}"
tmp="$(mktemp -d)"
a_pid="" b_pid="" r_pid=""
cleanup() {
  for pid in "$a_pid" "$b_pid" "$r_pid"; do
    [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  done
  for pid in "$a_pid" "$b_pid" "$r_pid"; do
    [ -n "$pid" ] && wait "$pid" 2>/dev/null || true
  done
  rm -rf "$tmp"
}
trap cleanup EXIT

wait_http() { # $1: url, $2: log to dump on failure
  for i in $(seq 1 50); do
    curl -fsS "$1" >/dev/null 2>&1 && return 0
    sleep 0.1
  done
  echo "never answered: $1" >&2
  cat "$2" >&2
  exit 1
}

echo "== build (vqserve + vqroute race-instrumented) =="
go build -race -o "$tmp/vqserve" ./cmd/vqserve
go build -race -o "$tmp/vqroute" ./cmd/vqroute
go build -o "$tmp/vqlab" ./cmd/vqlab
go build -o "$tmp/vqtrain" ./cmd/vqtrain

echo "== train two model versions =="
"$tmp/vqlab" -sessions 120 -seed 1 -out "$tmp/data1.csv"
"$tmp/vqtrain" -in "$tmp/data1.csv" -out "$tmp/model_v1.json" >/dev/null
"$tmp/vqlab" -sessions 140 -seed 2 -out "$tmp/data2.csv"
"$tmp/vqtrain" -in "$tmp/data2.csv" -out "$tmp/model_v2.json" >/dev/null
# Both replicas serve the same model path, as a shared artifact store
# would: the staged rollout below re-reads it on /-/reload.
cp "$tmp/model_v1.json" "$tmp/model.json"

echo "== start two replicas + the router =="
"$tmp/vqserve" -model "$tmp/model.json" -addr "$A_ADDR" 2>"$tmp/a.log" &
a_pid=$!
"$tmp/vqserve" -model "$tmp/model.json" -addr "$B_ADDR" 2>"$tmp/b.log" &
b_pid=$!
wait_http "http://$A_ADDR/healthz" "$tmp/a.log"
wait_http "http://$B_ADDR/healthz" "$tmp/b.log"
"$tmp/vqroute" -replicas "http://$A_ADDR,http://$B_ADDR" -addr "$R_ADDR" \
  -health-every 200ms -eject-after 2 2>"$tmp/r.log" &
r_pid=$!
wait_http "http://$R_ADDR/healthz" "$tmp/r.log"
curl -fsS "http://$R_ADDR/healthz" >"$tmp/healthz.json"
grep -q '"status":"ok"' "$tmp/healthz.json"
echo "ok: fleet up, router reports both replicas healthy"

mkbatch() { # $1: rows, $2: id prefix — session IDs spread over the ring
  for i in $(seq 1 "$1"); do
    printf '{"id":"%s-%d","features":{"mobile.rtt":180,"mobile.loss_pct":7}}\n' "$2" "$i"
  done
}

echo "== a batch through the router answers every row =="
mkbatch 60 warm >"$tmp/batch.ndjson"
curl -fsS --data-binary @"$tmp/batch.ndjson" \
  "http://$R_ADDR/diagnose" >"$tmp/out.ndjson"
rows=$(wc -l <"$tmp/out.ndjson")
[ "$rows" -eq 60 ] || { echo "expected 60 rows, got $rows" >&2; exit 1; }
grep -q '"class":' "$tmp/out.ndjson"
if grep -q '"error":' "$tmp/out.ndjson"; then
  echo "router answered error rows:" >&2
  grep '"error":' "$tmp/out.ndjson" >&2
  exit 1
fi
# The range split must have spread the 60 rows over both replicas (two
# idle replicas take 30 each).
curl -fsS "http://$A_ADDR/metrics" >"$tmp/a.metrics"
curl -fsS "http://$B_ADDR/metrics" >"$tmp/b.metrics"
grep '^vqserve_requests_total' "$tmp/a.metrics" | grep -qv ' 0$'
grep '^vqserve_requests_total' "$tmp/b.metrics" | grep -qv ' 0$'
echo "ok: 60/60 rows classified, both replicas took traffic"

echo "== staged rollout converges the fleet on the new snapshot =="
cp "$tmp/model_v2.json" "$tmp/model.json"
code=$(curl -sS -o "$tmp/rollout.json" -w '%{http_code}' \
  -X POST "http://$R_ADDR/-/rollout")
[ "$code" = "200" ] || { echo "rollout answered HTTP $code" >&2
  cat "$tmp/rollout.json" >&2; exit 1; }
grep -q '"status":"complete"' "$tmp/rollout.json"
grep -q '"outcome":"canary"' "$tmp/rollout.json"
grep -q '"outcome":"reloaded"' "$tmp/rollout.json"
hash_a=$(curl -fsS "http://$A_ADDR/healthz" | sed 's/.*"snapshot_hash":"\([^"]*\)".*/\1/')
hash_b=$(curl -fsS "http://$B_ADDR/healthz" | sed 's/.*"snapshot_hash":"\([^"]*\)".*/\1/')
[ -n "$hash_a" ] && [ "$hash_a" = "$hash_b" ] ||
  { echo "split brain after rollout: A=$hash_a B=$hash_b" >&2; exit 1; }
echo "ok: rollout complete, both replicas at snapshot $hash_a"

echo "== SIGKILL one replica: traffic fails over, router ejects it =="
kill -9 "$a_pid"
wait "$a_pid" 2>/dev/null || true
a_pid=""
mkbatch 60 postkill >"$tmp/batch2.ndjson"
curl -fsS --data-binary @"$tmp/batch2.ndjson" \
  "http://$R_ADDR/diagnose" >"$tmp/out2.ndjson"
rows=$(wc -l <"$tmp/out2.ndjson")
[ "$rows" -eq 60 ] || { echo "expected 60 rows after kill, got $rows" >&2; exit 1; }
if grep -q '"error":' "$tmp/out2.ndjson"; then
  echo "rows lost to the dead replica:" >&2
  grep '"error":' "$tmp/out2.ndjson" >&2
  exit 1
fi
curl -fsS "http://$R_ADDR/metrics" >"$tmp/r.metrics"
grep '^vqroute_failovers_total' "$tmp/r.metrics" | grep -qv ' 0$'
# Two failed 200ms health sweeps eject the dead replica.
for i in $(seq 1 50); do
  curl -fsS "http://$R_ADDR/healthz" >"$tmp/healthz.json" && grep -q '"down":1' "$tmp/healthz.json" && break
  sleep 0.1
done
curl -fsS "http://$R_ADDR/healthz" >"$tmp/healthz.json"
grep -q '"down":1' "$tmp/healthz.json"
grep -q '"status":"degraded"' "$tmp/healthz.json"
echo "ok: 60/60 rows survived the kill, dead replica ejected"

echo "== surviving replica still serves through the router =="
mkbatch 20 tail >"$tmp/batch3.ndjson"
curl -fsS --data-binary @"$tmp/batch3.ndjson" \
  "http://$R_ADDR/diagnose" | grep -c '"class":' | grep -q '^20$'
echo "ok: post-eject traffic flows"

echo "== whole fleet down answers 503, not a hang =="
kill "$b_pid"
wait "$b_pid" 2>/dev/null || true
b_pid=""
for i in $(seq 1 50); do
  curl -fsS "http://$R_ADDR/healthz" >/dev/null 2>&1 || break
  sleep 0.1
done
code=$(printf '{"id":"s","features":{}}\n' |
  curl -sS -o /dev/null -w '%{http_code}' --data-binary @- \
    "http://$R_ADDR/diagnose" || true)
[ "$code" = "503" ] || { echo "fleet-down answered HTTP $code, want 503" >&2; exit 1; }
echo "ok: fleet-wide outage is a 503"

kill "$r_pid"
wait "$r_pid" 2>/dev/null || true
r_pid=""
echo "route smoke: all checks passed"
