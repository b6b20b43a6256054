package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"

	"vqprobe/internal/reqscan"
)

// benchBody is a /diagnose body of rows copies of row, with ids s0, s1...
func benchBody(b *testing.B, rows int, row map[string]float64) []byte {
	var body []byte
	for i := 0; i < rows; i++ {
		line, err := json.Marshal(map[string]any{"id": fmt.Sprintf("s%d", i), "features": row})
		if err != nil {
			b.Fatal(err)
		}
		body = append(append(body, line...), '\n')
	}
	return body
}

// benchDiagnose times the /diagnose handler on one body of rows copies
// of row, NDJSON decode and encode included, and reports ns/row.
func benchDiagnose(b *testing.B, rows int, row map[string]float64) {
	e := NewEngine(testModel(b, "lan_cong_severe"), Config{Shards: 1})
	defer e.Close()
	h := e.Handler()
	body := benchBody(b, rows, row)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows), "ns/row")
}

// BenchmarkDiagnoseHandlerWide is a bulk upload of full rows: 8 rows of
// 358 features, of which the model reads 2.
func BenchmarkDiagnoseHandlerWide(b *testing.B) { benchDiagnose(b, 8, benchWideRow()) }

// benchWideRow is a row shaped like vqbench's bulk-wide rows: 358
// VP-prefixed statistics with shortest-form values (counters,
// fractions and 17-digit means, from a fixed seed), among them the
// model's mobile.rtt and mobile.loss.
func benchWideRow() map[string]float64 {
	row := fv(150, 8)
	x := uint64(1)
	for i := 0; len(row) < 358; i++ {
		x = x*6364136223846793005 + 1442695040888963407 // LCG step
		vp := []string{"mobile", "router", "server"}[i%3]
		dir := []string{"c2s", "s2c"}[i/3%2]
		stat := []string{"avg", "cnt", "max", "min", "std"}[i%5]
		name := fmt.Sprintf("%s.tcp_%s_f%02d_%s", vp, dir, i/6, stat)
		u := float64(x>>11) / (1 << 53)
		switch x >> 62 {
		case 0:
			row[name] = float64(x >> 40 % 2000)
		case 1:
			row[name] = u * 1000
		case 2:
			row[name] = u / 100
		default:
			row[name] = math.Round(u*1e6) / 1e3
		}
	}
	return row
}

// BenchmarkDiagnoseHandlerNarrow is a bulk upload trimmed to the keys
// the model reads: 100 rows of its 2 plan features.
func BenchmarkDiagnoseHandlerNarrow(b *testing.B) { benchDiagnose(b, 100, fv(150, 8)) }

// BenchmarkEngineBatchNarrow times the engine layer under
// BenchmarkDiagnoseHandlerNarrow: the same 100 narrow rows, decoded
// into their slots once before the timer starts, through DiagnoseBatch
// alone. It reports ns/row.
func BenchmarkEngineBatchNarrow(b *testing.B) { benchEngine(b, 100) }

// BenchmarkEngineBatch1Row is BenchmarkEngineBatchNarrow on a 1-row
// body, the body shape of vqbench's interactive workload, where the
// engine's cost per body is all of its cost per row.
func BenchmarkEngineBatch1Row(b *testing.B) { benchEngine(b, 1) }

// BenchmarkEngineBatch8Rows is BenchmarkEngineBatchNarrow on an 8-row
// body, the body shape of vqbench's bulk-wide workload.
func BenchmarkEngineBatch8Rows(b *testing.B) { benchEngine(b, 8) }

// benchEngine times one DiagnoseBatch call per iteration on a body of
// rows narrow rows, decoded into their slots once before the timer
// starts, on a one-shard engine, and reports ns/row.
func benchEngine(b *testing.B, rows int) {
	e := NewEngine(testModel(b, "lan_cong_severe"), Config{Shards: 1})
	defer e.Close()
	snap := &snapshotRef{m: e.Model()}
	width := snap.m.keys.Len()
	lines := bytes.Split(bytes.TrimSuffix(benchBody(b, rows, fv(150, 8)), []byte("\n")), []byte("\n"))
	vals := make([]float64, len(lines)*width)
	reqs := make([]Request, len(lines))
	for i, line := range lines {
		v := vals[i*width : (i+1)*width : (i+1)*width]
		req, err := reqscan.Scan(line, snap.m.keys, v)
		if err != nil {
			b.Fatal(err)
		}
		reqs[i] = Request{ID: req.ID, Explain: req.Explain, decodedBy: snap, vals: v}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if res := e.DiagnoseBatch(reqs); res[0].Err != "" {
			b.Fatal(res[0].Err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(reqs)), "ns/row")
}
