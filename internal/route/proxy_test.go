package route

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"testing/iotest"
	"time"
)

// scriptedReplica is a vqserve stand-in with exact control over the
// wire behavior, recording every batch of IDs it was asked to serve.
type scriptedReplica struct {
	mu      sync.Mutex
	batches [][]string
	// serveRows answers one /diagnose request; nil means "answer every
	// row with class good".
	serveRows func(w http.ResponseWriter, r *http.Request, ids []string)
	srv       *httptest.Server
}

func newScriptedReplica(t testing.TB) *scriptedReplica {
	t.Helper()
	fr := &scriptedReplica{}
	fr.srv = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/healthz":
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"status":"ok","model":{"snapshot_hash":"h"}}`)
		case "/diagnose":
			ids := scanIDs(r.Body)
			fr.mu.Lock()
			fr.batches = append(fr.batches, ids)
			serve := fr.serveRows
			fr.mu.Unlock()
			if serve == nil {
				w.Header().Set("Content-Type", "application/x-ndjson")
				for _, id := range ids {
					fmt.Fprintf(w, `{"id":%q,"class":"good"}`+"\n", id)
				}
				return
			}
			serve(w, r, ids)
		default:
			http.NotFound(w, r)
		}
	}))
	t.Cleanup(fr.srv.Close)
	return fr
}

func scanIDs(body io.Reader) []string {
	var ids []string
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var hdr struct {
			ID string `json:"id"`
		}
		if err := json.Unmarshal(sc.Bytes(), &hdr); err == nil {
			ids = append(ids, hdr.ID)
		}
	}
	return ids
}

func (fr *scriptedReplica) servedIDs() []string {
	fr.mu.Lock()
	defer fr.mu.Unlock()
	var all []string
	for _, b := range fr.batches {
		all = append(all, b...)
	}
	return all
}

func TestProxyMergesInInputOrder(t *testing.T) {
	a := startEngine(t, "h1", nil)
	b := startEngine(t, "h1", nil)
	rt := newRouter(t, Config{Replicas: []string{a.URL, b.URL}})

	ids := make([]string, 12)
	for i := range ids {
		ids[i] = fmt.Sprintf("sess-%d", i)
	}
	// A malformed line and a blank line ride along mid-batch: the
	// malformed one must keep its true input line number, the blank one
	// must vanish, and neither may shift any classified row's slot.
	body := ndjson(ids[:6]...) + "this is not json\n\n" + ndjson(ids[6:]...)

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", strings.NewReader(body)))
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	rows := readRows(t, rec.Body)
	if len(rows) != len(ids)+1 {
		t.Fatalf("got %d result rows, want %d", len(rows), len(ids)+1)
	}
	for i, r := range rows {
		switch {
		case i < 6:
			if r.ID != ids[i] || r.Err != "" {
				t.Fatalf("slot %d: %+v, want %s classified", i, r, ids[i])
			}
		case i == 6:
			if !strings.Contains(r.Err, "line 7") {
				t.Fatalf("malformed line lost its input line number: %+v", r)
			}
		default:
			if r.ID != ids[i-1] || r.Err != "" {
				t.Fatalf("slot %d: %+v, want %s classified", i, r, ids[i-1])
			}
		}
	}
}

// TestProxyConcurrentBatchesKeepTheirAnswers posts bodies of varying
// length through one router from several goroutines at once. Each
// request's sub-batch bodies, answer buffers and merge buffer come from
// a shared pool, so an answer that leaked between requests, or a buffer
// reused while a slot still pointed into it, shows as a wrong id.
func TestProxyConcurrentBatchesKeepTheirAnswers(t *testing.T) {
	a, b := startEngine(t, "h1", nil), startEngine(t, "h1", nil)
	h := newRouter(t, Config{Replicas: []string{a.URL, b.URL}}).Handler()
	var wg sync.WaitGroup
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				ids := make([]string, 1+(g*7+k*13)%40)
				for i := range ids {
					ids[i] = fmt.Sprintf("g%d-k%d-r%d", g, k, i)
				}
				rec := httptest.NewRecorder()
				h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", strings.NewReader(ndjson(ids...))))
				if rec.Code != http.StatusOK {
					t.Errorf("HTTP %d: %s", rec.Code, rec.Body.String())
					return
				}
				var got []string
				sc := bufio.NewScanner(rec.Body)
				for sc.Scan() {
					var r resultRow
					if err := json.Unmarshal(sc.Bytes(), &r); err != nil || r.Err != "" {
						t.Errorf("answer line %q: %v", sc.Text(), err)
						return
					}
					got = append(got, r.ID)
				}
				if !slices.Equal(got, ids) {
					t.Errorf("answers for %v, want %v", got, ids)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestProxyRejectsWhatReplicasReject pins the router's line check to
// the replicas': a line that is valid JSON but not a valid request
// used to pass the router, reach a replica inside a sub-batch and come
// back numbered within that sub-batch. The router now rejects it
// itself, with its true input line number.
func TestProxyRejectsWhatReplicasReject(t *testing.T) {
	a := startEngine(t, "h1", nil)
	b := startEngine(t, "h1", nil)
	rt := newRouter(t, Config{Replicas: []string{a.URL, b.URL}})

	var ids []string
	for i := 0; i < 16; i++ {
		ids = append(ids, fmt.Sprintf("sess-%d", i))
	}
	bad := map[int]string{ // input line → the line
		11: `{"id":"bad","features":{"mobile.rtt":"x"}}`,
		15: `{"id":5,"features":{"mobile.rtt":150}}`,
		19: `{"id":"big","features":{"mobile.rtt":1e400}}`,
	}
	var body strings.Builder
	next := 0
	for line := 1; line <= 19; line++ {
		if l, ok := bad[line]; ok {
			body.WriteString(l + "\n")
			continue
		}
		body.WriteString(ndjson(ids[next]))
		next++
	}

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", strings.NewReader(body.String())))
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	rows := readRows(t, rec.Body)
	if len(rows) != 19 {
		t.Fatalf("got %d result rows, want 19", len(rows))
	}
	next = 0
	for i, r := range rows {
		line := i + 1
		if _, ok := bad[line]; ok {
			if !strings.HasPrefix(r.Err, fmt.Sprintf("line %d: ", line)) {
				t.Fatalf("bad input line %d answered %+v, want its own line number", line, r)
			}
			continue
		}
		if r.ID != ids[next] || r.Err != "" || r.Class == "" {
			t.Fatalf("slot %d: %+v, want %s classified", i, r, ids[next])
		}
		next++
	}
}

// TestProxyFailoverExactlyOnce is the replica-kill contract: when a
// replica dies mid-stream, rows it already answered stay answered and
// only the unserved tail re-routes, so every acknowledged row is
// classified exactly once.
func TestProxyFailoverExactlyOnce(t *testing.T) {
	broken := newScriptedReplica(t)
	healthy := newScriptedReplica(t)
	rt := newRouter(t, Config{Replicas: []string{broken.srv.URL, healthy.srv.URL}})

	// The broken replica answers exactly one row, then the connection
	// dies mid-stream.
	broken.serveRows = func(w http.ResponseWriter, _ *http.Request, ids []string) {
		w.Header().Set("Content-Type", "application/x-ndjson")
		fmt.Fprintf(w, `{"id":%q,"class":"good"}`+"\n", ids[0])
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}

	var ids []string
	for i := 0; i < 8; i++ {
		ids = append(ids, fmt.Sprintf("sess-%d", i))
	}

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", strings.NewReader(ndjson(ids...))))
	if rec.Code != http.StatusOK {
		t.Fatalf("HTTP %d: %s", rec.Code, rec.Body.String())
	}
	rows := readRows(t, rec.Body)
	if len(rows) != len(ids) {
		t.Fatalf("got %d result rows for %d inputs", len(rows), len(ids))
	}
	seen := map[string]int{}
	for i, r := range rows {
		if r.ID != ids[i] {
			t.Fatalf("slot %d holds %q, want %q — order broke across failover", i, r.ID, ids[i])
		}
		if r.Err != "" {
			t.Fatalf("row %s lost to failover: %q", r.ID, r.Err)
		}
		seen[r.ID]++
	}
	for id, n := range seen {
		if n != 1 {
			t.Fatalf("row %s answered %d times", id, n)
		}
	}
	// The range sent to replica 0, the broken one, is its first batch.
	toBroken := broken.servedIDs()
	if len(toBroken) < 3 || len(ids)-len(toBroken) < 3 {
		t.Fatalf("the broken replica's range holds %d of %d rows, want at least 3 each side", len(toBroken), len(ids))
	}
	// The failed-over tail must be exactly the broken replica's batch
	// minus the one row it served — nothing re-sent, nothing dropped.
	healthyGot := map[string]int{}
	for _, id := range healthy.servedIDs() {
		healthyGot[id]++
	}
	for i, id := range toBroken {
		want := 1
		if i == 0 {
			want = 0 // served by the broken replica before it died
		}
		if healthyGot[id] != want {
			t.Fatalf("failover row %s sent to healthy replica %d times, want %d", id, healthyGot[id], want)
		}
	}
	if got := rt.obs.failovers.Value(); got != 1 {
		t.Fatalf("failovers counter %d, want 1", got)
	}
	if rt.reps[0].errsC.Value() == 0 {
		t.Fatal("broken replica's failure left no error count")
	}
}

func TestProxyShedsWith429(t *testing.T) {
	a := newScriptedReplica(t)
	b := newScriptedReplica(t)
	rt := newRouter(t, Config{Replicas: []string{a.srv.URL, b.srv.URL}, MaxInflight: 2, RetryAfter: 3 * time.Second})
	rt.reps[0].inflight.Store(2)
	rt.reps[1].inflight.Store(2)

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", strings.NewReader(ndjson("s1", "s2"))))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated fleet answered HTTP %d, want 429", rec.Code)
	}
	if got := rec.Header().Get("Retry-After"); got != "3" {
		t.Fatalf("Retry-After %q, want 3", got)
	}
	if got := rt.obs.shed.Value(); got != 2 {
		t.Fatalf("shed counter %d, want 2", got)
	}
	// No replica saw the rows: shedding means not retrying into overload.
	if len(a.servedIDs())+len(b.servedIDs()) != 0 {
		t.Fatal("shed rows still reached a replica")
	}
}

func TestProxyAllDownAnswers503(t *testing.T) {
	a := newScriptedReplica(t)
	rt := newRouter(t, Config{Replicas: []string{a.srv.URL}})
	rt.reps[0].state.Store(int32(Down))
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", strings.NewReader(ndjson("s1"))))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("dead fleet answered HTTP %d, want 503", rec.Code)
	}
}

// TestProxyClientDisconnectCancelsUpstream is the satellite-3 audit
// pin: when the downstream client goes away mid-request, the router
// must cancel its upstream replica requests instead of leaving them
// running against a dead socket.
func TestProxyClientDisconnectCancelsUpstream(t *testing.T) {
	gotUpstream := make(chan struct{})
	upstreamCanceled := make(chan struct{})
	var once sync.Once
	slow := newScriptedReplica(t)
	slow.serveRows = func(_ http.ResponseWriter, r *http.Request, _ []string) {
		once.Do(func() { close(gotUpstream) })
		// Hold the request open until the router cancels it; the
		// timeout is only a failure backstop.
		select {
		case <-r.Context().Done():
			close(upstreamCanceled)
		case <-time.After(5 * time.Second):
		}
	}
	rt := newRouter(t, Config{Replicas: []string{slow.srv.URL}})
	router := httptest.NewServer(rt.Handler())
	defer router.Close()

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, router.URL+"/diagnose", strings.NewReader(ndjson("s1")))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if resp != nil {
			resp.Body.Close()
		}
		done <- err
	}()

	<-gotUpstream // the replica is holding the proxied request
	cancel()      // client disconnects mid-flight

	select {
	case <-upstreamCanceled:
	case <-time.After(5 * time.Second):
		t.Fatal("upstream replica request was not canceled after client disconnect")
	}
	if err := <-done; err == nil {
		t.Fatal("canceled client request reported success")
	}
}

// TestReadAnswer pins how a replica answer is cut into row answers: a
// line answers its row once its newline arrived or the stream ended
// cleanly after it, blank and CR-only lines answer nothing, surplus
// lines are ignored, and a line past maxLine stops the read. The
// answers come back as whole lines, one newline each.
func TestReadAnswer(t *testing.T) {
	broken := errors.New("connection reset")
	cut := func(s string) io.Reader { return io.MultiReader(strings.NewReader(s), iotest.ErrReader(broken)) }
	long := strings.Repeat("x", maxLine)
	for _, tc := range []struct {
		name  string
		r     io.Reader
		rows  int
		want  []string
		errIs error
	}{
		{"clean", strings.NewReader("a\nb\n"), 2, []string{"a", "b"}, nil},
		{"unterminated tail at EOF", strings.NewReader("a\nb"), 2, []string{"a", "b"}, nil},
		{"blank and CR lines", strings.NewReader("\na\r\n\r\n\nb\r"), 2, []string{"a", "b"}, nil},
		{"byte at a time", iotest.OneByteReader(strings.NewReader("alpha\r\nbeta\n")), 2, []string{"alpha", "beta"}, nil},
		{"cut mid-line", cut("a\nb-half"), 2, []string{"a"}, broken},
		{"cut after a line", cut("a\n"), 2, []string{"a"}, broken},
		{"surplus lines", strings.NewReader("a\nb\nc\n"), 2, []string{"a", "b"}, nil},
		{"broken after every row", cut("a\nb\nc"), 2, []string{"a", "b"}, nil},
		{"short answer", strings.NewReader("a\n"), 2, []string{"a"}, nil},
		{"line too long", strings.NewReader("a\n" + long + "\nb\n"), 3, []string{"a"}, bufio.ErrTooLong},
		{"longest line", strings.NewReader(long[1:] + "\nb\n"), 2, []string{long[1:], "b"}, nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ans, served, err := readAnswer(tc.r, nil, tc.rows)
			if !errors.Is(err, tc.errIs) {
				t.Fatalf("err %v, want %v", err, tc.errIs)
			}
			got := strings.SplitAfter(string(ans), "\n")
			if got[len(got)-1] != "" || len(got)-1 != served {
				t.Fatalf("%d answers in %.60q, want %d lines each ending in a newline", served, ans, len(got)-1)
			}
			got = got[:served]
			for i := range got {
				got[i] = strings.TrimSuffix(got[i], "\n")
			}
			if !slices.Equal(got, tc.want) {
				t.Fatalf("answers %.60q, want %.60q", got, tc.want)
			}
		})
	}
}
