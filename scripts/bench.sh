#!/usr/bin/env bash
# bench.sh — training-path, fleet, inference, self-lint and router
# performance harness, with one committed baseline: reports/BENCH.json.
#
#   scripts/bench.sh run     full-length benchmark run; rewrites
#                            reports/BENCH.json
#   scripts/bench.sh check   quick run compared against
#                            reports/BENCH.json; fails on a gross
#                            regression (the CI smoke guard)
#
# The training benchmark set covers feature construction, FCBF
# selection, C4.5 tree building, prediction, and 10-fold
# cross-validation. The fleet benchmark runs one b.N-session fleet so
# ns/op is ns per simulated session; bench_report.py derives the
# sessions/sec figure recorded in the baseline. The inference set times
# the serving hot path — scalar vs batch single-tree, the offline
# pointer-forest vector path, and binary tree snapshot load — with one
# iteration = one prediction, so
# bench_report.py derives predictions_per_sec and snapshot_load_ms
# directly (see docs/PERFORMANCE.md for the methodology). The router
# set drives full /diagnose round trips through an in-process vqroute
# handler: a 100-row narrow body over two loopback engines, with ns/row
# beside ns/op, and the failover bench: the same body, whose first
# range's replica answers one row and dies, so the rest of that range
# fails over to a real engine (docs/ROUTING.md). The decode
# set times the /diagnose line scanner on one row per iteration: a
# bulk-wide row (358 features, 10 read) and a bulk-narrow one (the 10
# alone). The handler set (serve.http) times one in-process /diagnose
# body per iteration, decode, engine and encode included: 8 wide rows
# or 100 narrow ones, with ns/row beside ns/op. Beside it, the engine
# benches (serve.engine) send the same 100 narrow rows, decoded once
# before the timer, through DiagnoseBatch alone, and bodies of 1 and 8
# of those rows, the body sizes of vqbench's interactive and bulk-wide
# workloads.
set -euo pipefail
cd "$(dirname "$0")/.."

BENCHES='BenchmarkFeatureConstruction|BenchmarkFCBFSelection|BenchmarkC45Training|BenchmarkC45Prediction|BenchmarkCrossValidation'
FLEET_BENCH='BenchmarkFleetSessions'
INFER_BENCHES='BenchmarkPredictRowScalar|BenchmarkPredictBatch|BenchmarkForestPredictVector|BenchmarkSnapshotLoad'
LINT_BENCHES='BenchmarkSelfLintCold|BenchmarkSelfLintWarm'
ROUTE_BENCHES='BenchmarkRouterDiagnose|BenchmarkRouterFailover'
SCAN_BENCHES='BenchmarkScanWide|BenchmarkScanNarrow'
HANDLER_BENCHES='BenchmarkDiagnoseHandlerWide|BenchmarkDiagnoseHandlerNarrow|BenchmarkEngineBatchNarrow|BenchmarkEngineBatch1Row|BenchmarkEngineBatch8Rows'
BASELINE=reports/BENCH.json
MODE="${1:-run}"

run_bench() { # $1: -benchtime value
  go test -run '^$' -bench "^(${BENCHES})\$" -benchmem -benchtime "$1" .
}

run_fleet_bench() { # $1: -benchtime value (use a fixed Nx: one iteration = one session)
  go test -run '^$' -bench "^${FLEET_BENCH}\$" -benchmem -benchtime "$1" ./internal/fleet/
}

run_infer_bench() { # $1: -benchtime value (duration-based: iteration counts span 5 orders of magnitude)
  go test -run '^$' -bench "^(${INFER_BENCHES})\$" -benchmem -benchtime "$1" ./internal/ml/c45/
}

run_lint_bench() { # always 1x: one cold iteration type-checks the whole module (~13s)
  go test -run '^$' -bench "^(${LINT_BENCHES})\$" -benchmem -benchtime 1x ./internal/lint/
}

run_route_bench() { # $1: -benchtime value (duration-based: one iteration = one HTTP round trip, ~0.1–1 ms)
  go test -run '^$' -bench "^(${ROUTE_BENCHES})\$" -benchmem -benchtime "$1" ./internal/route/
}

run_scan_bench() { # $1: -benchtime value (duration-based: one iteration = one row, ~2–40 µs)
  go test -run '^$' -bench "^(${SCAN_BENCHES})\$" -benchmem -benchtime "$1" ./internal/reqscan/
}

run_handler_bench() { # $1: -benchtime value (duration-based: one iteration = one body, ~0.1 ms)
  go test -run '^$' -bench "^(${HANDLER_BENCHES})\$" -benchmem -benchtime "$1" ./internal/serve/
}

run_all() { # $1 training, $2 fleet, $3 inference, $4 router, decode and handler -benchtime; stops at the first failure
  run_bench "$1" &&
    run_fleet_bench "$2" &&
    run_infer_bench "$3" &&
    run_lint_bench &&
    run_route_bench "$4" &&
    run_scan_bench "$4" &&
    run_handler_bench "$4"
}

case "$MODE" in
run)
  out="$(run_all 1s 200000x 1s 1s)"
  printf '%s\n' "$out"
  printf '%s\n' "$out" | python3 scripts/bench_report.py parse >"$BASELINE"
  echo "wrote $BASELINE"
  ;;
check)
  # Training 100x: enough iterations to keep the sub-µs benches out of
  # warmup noise (5x flaked BenchmarkC45Prediction past the 4x guard)
  # while staying a quick smoke. Inference and router take a duration:
  # the inference set spans ~40 ns (PredictBatch) to ~20 µs
  # (SnapshotLoad) per iteration, so no fixed Nx suits all of them.
  out="$(run_all 100x 20000x 100ms 100ms)"
  printf '%s\n' "$out"
  printf '%s\n' "$out" | python3 scripts/bench_report.py parse |
    python3 scripts/bench_report.py compare "$BASELINE"
  ;;
*)
  echo "usage: scripts/bench.sh [run|check]" >&2
  exit 2
  ;;
esac
