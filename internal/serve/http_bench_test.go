package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// benchDiagnose times the /diagnose handler on one body of rows copies
// of row, NDJSON decode and encode included, and reports ns/row.
func benchDiagnose(b *testing.B, rows int, row map[string]float64) {
	e := NewEngine(testModel(b, "lan_cong_severe"), Config{Shards: 1})
	defer e.Close()
	h := e.Handler()
	var body []byte
	for i := 0; i < rows; i++ {
		line, err := json.Marshal(map[string]any{"id": fmt.Sprintf("s%d", i), "features": row})
		if err != nil {
			b.Fatal(err)
		}
		body = append(append(body, line...), '\n')
	}
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
// 354 features, of which the model reads 2.
func BenchmarkDiagnoseHandlerWide(b *testing.B) { benchDiagnose(b, 8, wideRow()) }

// BenchmarkDiagnoseHandlerNarrow is a bulk upload trimmed to the keys
// the model reads: 100 rows of its 2 plan features.
func BenchmarkDiagnoseHandlerNarrow(b *testing.B) { benchDiagnose(b, 100, fv(150, 8)) }
