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

// proxyTo forwards r, headers included, to the server at url and
// copies its answer to w.
func proxyTo(t *testing.T, url string, w http.ResponseWriter, r *http.Request) {
	req, err := http.NewRequest(r.Method, url+r.URL.Path, r.Body)
	if err != nil {
		t.Error(err)
		return
	}
	req.Header = r.Header.Clone()
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

// rangeBody is a 10-row body that two idle replicas split 5/5, with
// blank and CR-only lines at both range boundaries and after its first
// row, and a malformed line in each range: input line 6, the first
// range's third row, and line 12, the second range's second row.
func rangeBody() string {
	return "\r\n" + ndjson("s0") + "\n\r\n" + ndjson("s1") + `{"id":5}` + "\n" + ndjson("s2", "s3") +
		"\r\n\n" + ndjson("s4") + "not json\n" + ndjson("s5") + "\r\n" + ndjson("s6", "s7") + "\r"
}

// TestProxyRangesKeepTrueLineNumbers: a malformed line is answered by
// the replica its range went to, with its line number in the client's
// body, in the second range and in a failed-over tail alike.
func TestProxyRangesKeepTrueLineNumbers(t *testing.T) {
	body := rangeBody()
	direct := startEngine(t, "h1", nil)
	want := post(t, direct.Config.Handler, body)
	check := func(t *testing.T, rt *Router) {
		t.Helper()
		got := post(t, rt.Handler(), body)
		rows := readRows(t, bytes.NewReader(got))
		if len(rows) != 10 || !strings.HasPrefix(rows[2].Err, "line 6: ") || !strings.HasPrefix(rows[6].Err, "line 12: ") {
			t.Fatalf("answers %+v, want 10 with line 6's and line 12's errors third and seventh", rows)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("through the router:\n%s\ndirect:\n%s", got, want)
		}
	}

	t.Run("second range", func(t *testing.T) {
		a, b := startEngine(t, "h1", nil), startEngine(t, "h1", nil)
		check(t, newRouter(t, Config{Replicas: []string{a.URL, b.URL}}))
	})

	// The first range's replica answers its first row, then dies: the
	// rest of that range, starting at the blank lines after s0 and
	// holding line 6, fails over with its line number.
	t.Run("failed-over tail", func(t *testing.T) {
		eng := startEngine(t, "h1", nil)
		var cut atomic.Bool
		failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if r.URL.Path != "/diagnose" || !cut.CompareAndSwap(false, true) {
				proxyTo(t, eng.URL, w, r)
				return
			}
			rec := httptest.NewRecorder()
			proxyTo(t, eng.URL, rec, r)
			a := rec.Body.Bytes()
			w.Write(a[:bytes.IndexByte(a, '\n')+1])
			w.(http.Flusher).Flush()
			panic(http.ErrAbortHandler)
		}))
		defer failing.Close()
		healthy := startEngine(t, "h1", nil)
		rt := newRouter(t, Config{Replicas: []string{failing.URL, healthy.URL}})
		check(t, rt)
		if !cut.Load() || rt.obs.failovers.Value() != 1 {
			t.Fatalf("no mid-range failover happened (cut %v, failovers %d)", cut.Load(), rt.obs.failovers.Value())
		}
	})
}
