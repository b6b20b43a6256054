package serve

// Fuzz target for the NDJSON ingest surface: arbitrary request bodies
// must never panic the handler or the engine behind it, and the
// response must stay well-formed NDJSON with one result per non-blank
// input line. Lines are read the way bufio.ScanLines reads them: one
// trailing CR is dropped, so a line holding only a CR is blank.

import (
	"bufio"
	"bytes"
	"net/http/httptest"
	"testing"
)

func FuzzDiagnoseNDJSON(f *testing.F) {
	m := testModel(f, "lan_cong_severe")
	e := NewEngine(m, Config{Shards: 2})
	f.Cleanup(func() { e.Close() })
	handler := e.Handler()

	f.Add([]byte(`{"id":"a","features":{"mobile.rtt":50,"mobile.loss":0}}` + "\n"))
	f.Add([]byte(`{"id":"a","features":{"mobile.rtt":1e999}}` + "\n"))
	f.Add([]byte("{}\n\n{}\n"))
	f.Add([]byte(`{"id":"a","features":{"mobile.rtt":"NaN"}}` + "\n"))
	f.Add([]byte(`{"id":"a","explain":true,"features":{}}` + "\n"))
	f.Add([]byte("\x00\xff\xfe\n{broken\n"))
	f.Add([]byte(""))
	f.Add([]byte("\r\n0"))

	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest("POST", "/diagnose", bytes.NewReader(body))
		rr := httptest.NewRecorder()
		handler.ServeHTTP(rr, req)

		if rr.Code != 200 {
			return // rejected whole (empty body, oversized line, …) — fine
		}
		nonBlank := 0
		for _, line := range bytes.Split(body, []byte("\n")) {
			if len(bytes.TrimSuffix(line, []byte("\r"))) > 0 {
				nonBlank++
			}
		}
		results := 0
		sc := bufio.NewScanner(bytes.NewReader(rr.Body.Bytes()))
		sc.Buffer(make([]byte, 64*1024), 1<<20)
		for sc.Scan() {
			results++
		}
		if results != nonBlank {
			t.Fatalf("%d result lines for %d non-blank input lines", results, nonBlank)
		}
	})
}
