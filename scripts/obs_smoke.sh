#!/usr/bin/env bash
# obs_smoke.sh — CI smoke for the obs telemetry plane (docs/OBSERVABILITY.md).
#
# Boots a real race-instrumented vqserve with a canary SLO whose latency
# threshold (1ns) no request can meet, drives /diagnose traffic, and
# asserts the full telemetry path end to end:
#
#   /vars        serves a snapshot with ring history for the engine series
#   burn-rate    the canary fast+slow windows saturate and the alert
#                fires, visible in /healthz "alerts" and the slog stream
#   /dashboard   serves the self-contained HTML page
#   vqtop        renders one frame from each source (-source vars and
#                -source metrics) in snapshot mode
set -euo pipefail
cd "$(dirname "$0")/.."

ADDR="${OBS_SMOKE_ADDR:-127.0.0.1:18700}"
tmp="$(mktemp -d)"
srv_pid=""
cleanup() {
  [ -n "$srv_pid" ] && kill "$srv_pid" 2>/dev/null || true
  [ -n "$srv_pid" ] && wait "$srv_pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

echo "== build (vqserve race-instrumented) =="
go build -race -o "$tmp/vqserve" ./cmd/vqserve
go build -o "$tmp/vqlab" ./cmd/vqlab
go build -o "$tmp/vqtrain" ./cmd/vqtrain
go build -o "$tmp/vqtop" ./cmd/vqtop

echo "== train a small model =="
"$tmp/vqlab" -sessions 120 -seed 1 -out "$tmp/data.csv"
"$tmp/vqtrain" -in "$tmp/data.csv" -out "$tmp/model.json" >/dev/null

# Canary SLO: threshold_s below every latency bucket makes each request
# a violation, so burn = 1/(1-objective) = 2 >= burn 1 the moment both
# windows carry traffic — a deterministic fast-burn trigger.
cat >"$tmp/slo.json" <<'EOF'
[
  {
    "name": "latency-canary",
    "hist": "vqserve_stage_latency_seconds{stage=\"total\"}",
    "threshold_s": 1e-9,
    "objective": 0.5,
    "fast_window": "1s",
    "slow_window": "2s",
    "burn": 1
  }
]
EOF

echo "== start vqserve with the obs plane =="
"$tmp/vqserve" -model "$tmp/model.json" -addr "$ADDR" \
  -obs 200ms -slo "$tmp/slo.json" 2>"$tmp/serve.log" &
srv_pid=$!

for i in $(seq 1 50); do
  curl -fsS "http://$ADDR/healthz" >/dev/null 2>&1 && break
  kill -0 "$srv_pid" 2>/dev/null || { cat "$tmp/serve.log" >&2; exit 1; }
  sleep 0.1
done

echo "== drive /diagnose load for ~3s =="
req='{"id":"s1","features":{"mobile.rtt":180,"mobile.loss_pct":7}}'
end=$((SECONDS + 3))
while [ "$SECONDS" -lt "$end" ]; do
  printf '%s\n%s\n%s\n' "$req" "$req" "$req" |
    curl -fsS --data-binary @- "http://$ADDR/diagnose" >/dev/null
  sleep 0.1
done

echo "== /vars serves ring history =="
curl -fsS "http://$ADDR/vars" >"$tmp/vars.json"
grep -q '"vqserve_requests_total"' "$tmp/vars.json"
# the gauge name embeds quoted labels, which JSON escapes
grep -q 'vqserve_slo_burn_rate{slo=\\"latency-canary\\",window=\\"fast\\"}' "$tmp/vars.json"
echo "ok: /vars carries engine series and burn-rate gauges"

echo "== canary alert fires on /healthz and in the logs =="
curl -fsS "http://$ADDR/healthz" >"$tmp/healthz.json"
grep -q '"alerts":' "$tmp/healthz.json"
grep -q '"slo":"latency-canary"' "$tmp/healthz.json"
grep -q '"state":"firing"' "$tmp/healthz.json"
grep -q 'slo alert firing' "$tmp/serve.log"
echo "ok: latency-canary firing"

echo "== /dashboard serves the HTML page =="
curl -fsS "http://$ADDR/dashboard" >"$tmp/dashboard.html"
grep -qi '<!doctype html>' "$tmp/dashboard.html"
echo "ok: dashboard up"

echo "== vqtop renders one frame from each source =="
"$tmp/vqtop" -url "http://$ADDR" -source vars -once >"$tmp/top.txt"
head -3 "$tmp/top.txt"
grep -q 'latency-canary FIRING' "$tmp/top.txt"
grep -q 'vqserve_requests_total' "$tmp/top.txt"
"$tmp/vqtop" -url "http://$ADDR" -source metrics -once |
  grep -q 'vqserve_requests_total'
echo "ok: vqtop snapshot mode against /vars and /metrics"

kill "$srv_pid"
wait "$srv_pid" 2>/dev/null || true
srv_pid=""
echo "obs smoke: all checks passed"
