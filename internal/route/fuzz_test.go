package route

// Differential fuzz target for the router tier: any /diagnose body sent
// through vqroute over two real engines must be answered exactly as one
// engine answers it directly.

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"vqprobe/internal/serve"
)

func FuzzRouterMatchesEngine(f *testing.F) {
	a, b := startEngine(f, "h1", nil), startEngine(f, "h1", nil)
	router := newRouter(f, Config{Replicas: []string{a.URL, b.URL}}).Handler()
	e := serve.NewEngine(modelWithHash(f, "h1"), serve.Config{Shards: 2})
	f.Cleanup(func() { e.Close() })
	direct := e.Handler()

	f.Add([]byte(oracleBody()))
	f.Add([]byte(ndjson("s1", "s2", "s3", "s4")))
	f.Add([]byte(`{"id":"a","explain":true,"features":{"mobile.rtt":150}}` + "\r\n\r\n" + `{"id":"b"}`))
	f.Add([]byte("\r\n0"))
	f.Add([]byte("{}\n\n{}\n"))
	f.Add([]byte("\x00\xff\xfe\n{broken\n"))
	f.Add([]byte(`{"id":"a"}` + "\r\r\n" + `{"id":"b","features":{"mobile.rtt":1e400}}`))
	f.Add([]byte(""))
	f.Add([]byte(rangeBody()))

	f.Fuzz(func(t *testing.T, body []byte) {
		via := httptest.NewRecorder()
		router.ServeHTTP(via, httptest.NewRequest(http.MethodPost, "/diagnose", bytes.NewReader(body)))
		want := httptest.NewRecorder()
		direct.ServeHTTP(want, httptest.NewRequest(http.MethodPost, "/diagnose", bytes.NewReader(body)))
		if via.Code != want.Code {
			t.Fatalf("router HTTP %d (%s), engine HTTP %d (%s)", via.Code, strings.TrimSpace(via.Body.String()), want.Code, strings.TrimSpace(want.Body.String()))
		}
		if via.Code == http.StatusOK && !bytes.Equal(via.Body.Bytes(), want.Body.Bytes()) {
			t.Fatalf("through the router:\n%s\ndirect:\n%s", via.Body.Bytes(), want.Body.Bytes())
		}
	})
}
