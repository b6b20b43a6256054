package serve

// Regression tests for the robustness sweep (docs/ROBUSTNESS.md): every
// fault class the chaos harness surfaced in the serving layer is pinned
// here — classification panics, non-finite features, shed rows, graceful
// degradation on failed reloads, and the request accounting invariant.

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"vqprobe/internal/reqscan"
)

// TestWorkerPanicRecovered pins a serving bug: a panic while
// classifying one request used to kill the goroutine classifying it,
// deadlocking every later request it would have served (and Close). It
// must instead surface as a per-request error, for plain and explain
// requests alike.
func TestWorkerPanicRecovered(t *testing.T) {
	m := testModel(t, "lan_cong_severe")
	e := NewEngine(m, Config{
		Shards: 2,
		InjectFault: func(r *Request) error {
			if strings.HasPrefix(r.ID, "boom") {
				panic("injected: poisoned request " + r.ID)
			}
			return nil
		},
	})

	var reqs []Request
	for i := 0; i < 40; i++ {
		id := fmt.Sprintf("ok-%d", i)
		if i%4 == 0 {
			id = fmt.Sprintf("boom-%d", i)
		}
		reqs = append(reqs, Request{ID: id, Features: fv(50, 0)})
	}
	for i := 0; i < 8; i++ {
		id := fmt.Sprintf("ok-explain-%d", i)
		if i%2 == 0 {
			id = fmt.Sprintf("boom-explain-%d", i)
		}
		reqs = append(reqs, Request{ID: id, Features: fv(50, 0), Explain: true})
	}
	res := e.DiagnoseBatch(reqs)
	for i, r := range res {
		if strings.HasPrefix(reqs[i].ID, "boom") {
			if !strings.Contains(r.Err, "recovered panic") {
				t.Fatalf("poisoned request %s: Err=%q, want recovered panic", reqs[i].ID, r.Err)
			}
		} else if r.Err != "" || r.Class != "good" {
			t.Fatalf("healthy request %s after panics: class=%q err=%q", reqs[i].ID, r.Class, r.Err)
		} else if reqs[i].Explain && r.Rule == "" {
			t.Fatalf("healthy explain request %s lost its rule: %+v", reqs[i].ID, r)
		}
	}

	// The engine must still work and still drain: admission a panic
	// never gave back would hang either of these.
	after := e.DiagnoseBatch([]Request{{ID: "after", Features: fv(50, 0)}})
	if after[0].Class != "good" {
		t.Fatalf("engine degraded after panics: %+v", after[0])
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	submitted, requests, errs, _ := e.Counters()
	if submitted != requests+errs {
		t.Errorf("accounting imbalance after panics: submitted=%d classified=%d errors=%d",
			submitted, requests, errs)
	}
	if v := e.obs.panics.Value(); v != 14 {
		t.Errorf("panics counter = %d, want 14", v)
	}
}

// TestNonFiniteFeaturesRejected pins the silent-NaN inference bug: NaN
// is the missing-value sentinel, so a client-supplied NaN used to
// traverse the tree's missing-value path and return a confident class.
// It must instead fail the record, deterministically naming the
// lexicographically smallest offending feature.
func TestNonFiniteFeaturesRejected(t *testing.T) {
	m := testModel(t, "lan_cong_severe")
	e := NewEngine(m, Config{Shards: 1})
	defer e.Close()

	nan := func() float64 { var z float64; return 0 / z }
	inf := func() float64 { var z float64; return 1 / z }

	for i := 0; i < 20; i++ { // map iteration order must not leak into the error
		res := e.DiagnoseBatch([]Request{
			{ID: "n", Features: map[string]float64{"mobile.rtt": nan(), "mobile.loss": 2, "aaa": nan()}},
			{ID: "i", Features: map[string]float64{"mobile.rtt": 50, "mobile.loss": inf()}},
		})
		if !strings.Contains(res[0].Err, `"aaa"`) {
			t.Fatalf("NaN rejection named %q, want smallest key aaa", res[0].Err)
		}
		if !strings.Contains(res[1].Err, `"mobile.loss"`) || res[1].Class != "" {
			t.Fatalf("Inf feature not rejected: %+v", res[1])
		}
	}
	if v := e.obs.invalid.Value(); v != 40 {
		t.Errorf("invalid counter = %d, want 40", v)
	}
}

// TestBatchShedNonBlocking: under the Shed policy, DiagnoseBatch
// answers every row that full admission refuses with ErrOverloaded at
// once. It returns while the admitted rows are still wedged, so a shed
// row never waits on the room it was refused.
func TestBatchShedNonBlocking(t *testing.T) {
	const rows = 10
	w := newWedge()
	e := NewEngine(testModel(t, "lan_cong_severe"), Config{
		Shards: 1, QueueDepth: 2, Policy: Shed, InjectFault: w.fault,
	})
	held := w.hold(e, 2) // all of the admission limit
	var reqs []Request
	for i := 0; i < rows; i++ {
		reqs = append(reqs, Request{ID: fmt.Sprintf("r%d", i), Features: fv(50, 0)})
	}
	done := make(chan []Result, 1)
	go func() { done <- e.DiagnoseBatch(reqs) }()
	var res []Result
	select {
	case res = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("DiagnoseBatch blocked on full admission")
	}
	for i, r := range res {
		if r.ID != reqs[i].ID || r.Err != ErrOverloaded.Error() {
			t.Fatalf("row %d on a saturated engine answered %+v, want shed", i, r)
		}
	}
	w.release()
	<-held
	e.Close()
	submitted, requests, errs, shed := e.Counters()
	if submitted != 2 || requests != 2 || errs != 0 || shed != rows {
		t.Errorf("submitted=%d classified=%d errors=%d shed=%d, want 2, 2, 0 and %d", submitted, requests, errs, shed, rows)
	}
}

// TestDegradedReload pins graceful degradation: a failing ReloadFunc
// keeps the last-good model serving, flips /healthz to "degraded" with
// the error, and a subsequent successful reload clears the state.
func TestDegradedReload(t *testing.T) {
	m := testModel(t, "lan_cong_severe")
	fail := true
	e := NewEngine(m, Config{
		Shards: 1,
		ReloadFunc: func() (*Model, error) {
			if fail {
				return nil, errors.New("model file corrupted")
			}
			return testModel(t, "wan_cong_severe"), nil
		},
	})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	get := func(path string) (int, string) {
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}
	post := func(path string) int {
		resp, err := srv.Client().Post(srv.URL+path, "", nil)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("/-/reload"); code != 500 {
		t.Fatalf("failing reload returned %d, want 500", code)
	}
	code, body := get("/healthz")
	if code != 200 || !strings.Contains(body, `"degraded"`) || !strings.Contains(body, "model file corrupted") {
		t.Fatalf("degraded healthz = %d %s", code, body)
	}
	// Still serving from the last-good snapshot.
	res := e.DiagnoseBatch([]Request{{ID: "x", Features: fv(150, 8)}})
	if res[0].Class != "lan_cong_severe" {
		t.Fatalf("degraded engine stopped serving last-good model: %+v", res[0])
	}

	fail = false
	if code := post("/-/reload"); code != 200 {
		t.Fatalf("recovering reload returned %d", code)
	}
	code, body = get("/healthz")
	if code != 200 || !strings.Contains(body, `"ok"`) || strings.Contains(body, "degraded") {
		t.Fatalf("healthz after recovery = %d %s", code, body)
	}
	res = e.DiagnoseBatch([]Request{{ID: "x", Features: fv(150, 8)}})
	if res[0].Class != "wan_cong_severe" {
		t.Fatalf("reload did not swap the model: %+v", res[0])
	}
}

// TestDiagnoseTrueLineNumbers: per-line errors must report the line's
// position in the input, counting blank and malformed lines.
func TestDiagnoseTrueLineNumbers(t *testing.T) {
	m := testModel(t, "lan_cong_severe")
	e := NewEngine(m, Config{Shards: 1})
	defer e.Close()
	srv := httptest.NewServer(e.Handler())
	defer srv.Close()

	body := "{\"id\":\"a\",\"features\":{\"mobile.rtt\":50,\"mobile.loss\":0}}\n" +
		"\n" + // blank line 2
		"{not json\n" + // malformed line 3
		"{\"id\":\"b\",\"features\":{\"mobile.rtt\":50,\"mobile.loss\":0}}\n"
	resp, err := srv.Client().Post(srv.URL+"/diagnose", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	out, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(out), "line 3:") {
		t.Fatalf("malformed line reported with wrong number:\n%s", out)
	}
}

// TestDiagnoseFirstLineHeader: the first-line header vqroute sets starts
// the per-line numbering where the client's body put the range; absent,
// numbering starts at 1, and a value that is not a positive integer is
// refused before any line is read.
func TestDiagnoseFirstLineHeader(t *testing.T) {
	e := NewEngine(testModel(t, "lan_cong_severe"), Config{Shards: 1})
	defer e.Close()
	h := e.Handler()
	body := "\r\n{not json\n{\"id\":\"b\",\"features\":{\"mobile.rtt\":50}}\n"
	post := func(first string, set bool) *httptest.ResponseRecorder {
		req := httptest.NewRequest(http.MethodPost, "/diagnose", strings.NewReader(body))
		if set {
			req.Header.Set(reqscan.FirstLineHeader, first)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		return rec
	}
	for _, tc := range []struct {
		first string
		set   bool
		want  string
	}{
		{"", false, `{"error":"line 2: `},
		{"1", true, `{"error":"line 2: `},
		{"41", true, `{"error":"line 42: `},
	} {
		rec := post(tc.first, tc.set)
		if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Body.String(), tc.want) {
			t.Errorf("first line %q (set %v): HTTP %d %q, want an answer starting %q", tc.first, tc.set, rec.Code, rec.Body.String(), tc.want)
		}
	}
	for _, bad := range []string{"0", "-3", "x"} {
		if rec := post(bad, true); rec.Code != http.StatusBadRequest {
			t.Errorf("first line %q: HTTP %d %q, want 400", bad, rec.Code, rec.Body.String())
		}
	}
}
