package fleet

import "testing"

// BenchmarkFleetSessions measures the fleet's per-session cost by
// running one b.N-session fleet: ns/op is ns per simulated session, so
// sessions/sec = 1e9 / ns_op (scripts/bench_report.py derives it for
// reports/BENCH.json; methodology in docs/PERFORMANCE.md).
func BenchmarkFleetSessions(b *testing.B) {
	b.ReportAllocs()
	sum, _, err := Run(Config{Sessions: b.N, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if sum.Total.Sessions != uint64(b.N) {
		b.Fatalf("aggregated %d sessions, want %d", sum.Total.Sessions, b.N)
	}
}
