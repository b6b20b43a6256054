package route

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
)

// oracleBody is one /diagnose body of every kind of line a client
// sends: plain rows, explained rows, rows missing features, ids that
// need escaping, malformed lines, blank lines, CRLF-terminated rows and
// lines holding only a CR (blank, as bufio.ScanLines reads them).
func oracleBody() string {
	var b strings.Builder
	for i := 0; i < 40; i++ {
		rtt, loss := 10+float64(i*5), float64(i%11)
		switch i % 8 {
		case 3:
			fmt.Fprintf(&b, `{"id":"explain-%d","explain":true,"features":{"mobile.rtt":%g,"mobile.loss":%g}}`+"\n", i, rtt, loss)
		case 5:
			fmt.Fprintf(&b, `{"id":"<s%d>&\u2028","features":{"mobile.rtt":%g}}`+"\n", i, rtt)
		case 4:
			fmt.Fprintf(&b, `{"id":"crlf-%d","features":{"mobile.rtt":%g,"mobile.loss":%g}}`+"\r\n", i, rtt, loss)
		case 6:
			b.WriteString([]string{"\n", "\r\n"}[i/8%2])
			fmt.Fprintf(&b, `{"id":"s%d","features":{"mobile.rtt":%g,"mobile.loss":%g,"router.rtt":1}}`+"\n", i, rtt, loss)
		case 7:
			b.WriteString([]string{"this is not json", `{"id":5}`, `{"id":"big","features":{"mobile.rtt":1e400}}`, `{"id":"x","explain":1}`, `[]`}[i/8] + "\n")
		default:
			fmt.Fprintf(&b, `{"id":"s%d","features":{"mobile.rtt":%g,"mobile.loss":%g}}`+"\n", i, rtt, loss)
		}
	}
	return b.String()
}

// post sends body to h's /diagnose and returns the answer bytes.
func post(t *testing.T, h http.Handler, body string) []byte {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	return rec.Body.Bytes()
}

// TestRouterMatchesDirectEngine is the router-vs-direct oracle: one body
// sent through vqroute over two real engines must come back as the
// very bytes one engine's /diagnose answers for it, also when a replica
// dies mid-answer and its unserved tail fails over to the other.
func TestRouterMatchesDirectEngine(t *testing.T) {
	body := oracleBody()
	direct := startEngine(t, "h1", nil)
	resp, err := http.Post(direct.URL+"/diagnose", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	_, err = want.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(want.Bytes(), []byte(`"explain":{`)) || !bytes.Contains(want.Bytes(), []byte(`\u003cs5\u003e\u0026\u2028`)) {
		t.Fatalf("the direct answer lacks an explanation or an escaped id:\n%s", want.Bytes())
	}

	t.Run("healthy", func(t *testing.T) {
		a, b := startEngine(t, "h1", nil), startEngine(t, "h1", nil)
		rt := newRouter(t, Config{Replicas: []string{a.URL, b.URL}})
		if got := post(t, rt.Handler(), body); !bytes.Equal(got, want.Bytes()) {
			t.Fatalf("through the router:\n%s\ndirect:\n%s", got, want.Bytes())
		}
	})

	// The first /diagnose answer of the failing replica is its engine's
	// real answer, cut after its first line, or in the middle of its
	// second: the connection dies mid-stream, and the router re-sends
	// the rest elsewhere. A cut line is not an answer.
	for _, tc := range []struct {
		name string
		cut  func(answer []byte) []byte
	}{
		{"failover", func(a []byte) []byte { return a[:bytes.IndexByte(a, '\n')+1] }},
		{"failover mid-line", func(a []byte) []byte {
			first := bytes.IndexByte(a, '\n') + 1
			second := bytes.IndexByte(a[first:], '\n')
			return a[:first+second/2]
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eng := startEngine(t, "h1", nil)
			var cut atomic.Bool
			failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				if r.URL.Path != "/diagnose" || cut.Load() {
					proxyTo(t, eng.URL, w, r)
					return
				}
				cut.Store(true)
				rec := httptest.NewRecorder()
				proxyTo(t, eng.URL, rec, r)
				w.Header().Set("Content-Type", "application/x-ndjson")
				w.Write(tc.cut(rec.Body.Bytes()))
				w.(http.Flusher).Flush()
				panic(http.ErrAbortHandler)
			}))
			defer failing.Close()
			healthy := startEngine(t, "h1", nil)
			rt := newRouter(t, Config{Replicas: []string{failing.URL, healthy.URL}})
			if got := post(t, rt.Handler(), body); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("through the router with a failover:\n%s\ndirect:\n%s", got, want.Bytes())
			}
			if !cut.Load() || rt.obs.failovers.Value() != 1 {
				t.Fatalf("no mid-batch failover happened (cut %v, failovers %d)", cut.Load(), rt.obs.failovers.Value())
			}
		})
	}
}

// proxyTo forwards r to the server at url and copies its answer to w.
func proxyTo(t *testing.T, url string, w http.ResponseWriter, r *http.Request) {
	req, err := http.NewRequest(r.Method, url+r.URL.Path, r.Body)
	if err != nil {
		t.Error(err)
		return
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Error(err)
		return
	}
	defer resp.Body.Close()
	for k, v := range resp.Header {
		w.Header()[k] = v
	}
	w.WriteHeader(resp.StatusCode)
	var b bytes.Buffer
	b.ReadFrom(resp.Body)
	w.Write(b.Bytes())
}
