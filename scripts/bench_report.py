#!/usr/bin/env python3
"""Benchmark report helper for scripts/bench.sh.

  bench_report.py parse             stdin: `go test -bench` output
                                    stdout: {name: {ns_op, b_op, allocs_op}}
  bench_report.py compare BASELINE  stdin: a report produced by `parse`
                                    exits 1 when a benchmark regressed past
                                    the tolerances vs the committed baseline
"""
import json
import re
import sys

# Smoke tolerances: wall-clock is noisy on shared CI runners, so only a
# gross slowdown fails; allocation counts are nearly deterministic, so
# they get a tighter bound.
NS_TOLERANCE = 4.0
ALLOC_TOLERANCE = 2.5

LINE = re.compile(
    r"^(Benchmark\w+)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op"
    r"(?:\s+[\d.]+ MB/s)?(?:\s+([\d.]+) ns/row)?"
    r"\s+([\d.]+) B/op\s+([\d.]+) allocs/op"
)

# The inference benchmarks count one iteration per prediction, so
# ns/op inverts directly into the headline predictions/sec figure.
PREDICTION_BENCHES = {
    "BenchmarkPredictRowScalar",
    "BenchmarkPredictBatch",
    "BenchmarkForestPredictVector",
}


def parse(stream):
    out = {}
    for line in stream:
        m = LINE.match(line)
        if m:
            entry = {
                "ns_op": float(m.group(2)),
                "b_op": float(m.group(4)),
                "allocs_op": float(m.group(5)),
            }
            # The /diagnose handler and router benches emit ns/row: one
            # iteration is a whole body of rows.
            if m.group(3):
                entry["ns_row"] = float(m.group(3))
            # The fleet benchmark runs one b.N-session fleet, so ns/op
            # is ns per simulated session — record the headline
            # throughput figure alongside it.
            if m.group(1) == "BenchmarkFleetSessions" and entry["ns_op"] > 0:
                entry["sessions_per_sec"] = round(1e9 / entry["ns_op"], 1)
            if m.group(1) in PREDICTION_BENCHES and entry["ns_op"] > 0:
                entry["predictions_per_sec"] = round(1e9 / entry["ns_op"], 1)
            if m.group(1) == "BenchmarkSnapshotLoad":
                entry["snapshot_load_ms"] = round(entry["ns_op"] / 1e6, 3)
            if m.group(1).startswith("BenchmarkSelfLint"):
                entry["self_lint_ms"] = round(entry["ns_op"] / 1e6, 1)
            # One failover-bench iteration is one 100-row body whose
            # first range fails after one row and re-routes its rest:
            # ns/op is the whole body's latency, failover included.
            if m.group(1) == "BenchmarkRouterFailover":
                entry["failover_ms"] = round(entry["ns_op"] / 1e6, 3)
            out[m.group(1)] = entry
    # The headline figure of the incremental lint cache: how much of
    # the cold run (full type-check + analysis) the warm run skips.
    cold = out.get("BenchmarkSelfLintCold")
    warm = out.get("BenchmarkSelfLintWarm")
    if cold and warm and warm["ns_op"] > 0:
        warm["cache_speedup"] = round(cold["ns_op"] / warm["ns_op"], 1)
    return out


def main():
    if len(sys.argv) >= 2 and sys.argv[1] == "parse":
        report = parse(sys.stdin)
        if not report:
            sys.exit("bench_report.py: no benchmark lines found on stdin")
        json.dump(report, sys.stdout, indent=2, sort_keys=True)
        print()
        return

    if len(sys.argv) == 3 and sys.argv[1] == "compare":
        with open(sys.argv[2]) as f:
            baseline = json.load(f)
        current = json.load(sys.stdin)
        failures = []
        # The lint cache must stay a real cache: a warm self-lint run
        # below 5x over cold means the content keys stopped hitting.
        warm = current.get("BenchmarkSelfLintWarm")
        if warm is not None and warm.get("cache_speedup", 0) < 5:
            failures.append(
                f"BenchmarkSelfLintWarm: cache_speedup "
                f"{warm.get('cache_speedup')} < 5x over cold"
            )
        for name, base in sorted(baseline.items()):
            cur = current.get(name)
            if cur is None:
                failures.append(f"{name}: missing from current run")
                continue
            if cur["ns_op"] > base["ns_op"] * NS_TOLERANCE:
                failures.append(
                    f"{name}: {cur['ns_op']:.0f} ns/op vs baseline "
                    f"{base['ns_op']:.0f} (> {NS_TOLERANCE}x)"
                )
            if cur["allocs_op"] > base["allocs_op"] * ALLOC_TOLERANCE + 16:
                failures.append(
                    f"{name}: {cur['allocs_op']:.0f} allocs/op vs baseline "
                    f"{base['allocs_op']:.0f} (> {ALLOC_TOLERANCE}x)"
                )
        if failures:
            print(f"benchmark regression vs {sys.argv[2]}:", file=sys.stderr)
            for f in failures:
                print("  " + f, file=sys.stderr)
            sys.exit(1)
        print(f"benchmarks within tolerance of baseline ({len(baseline)} compared)")
        return

    sys.exit(__doc__)


if __name__ == "__main__":
    main()
