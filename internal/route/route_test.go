package route

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"

	"vqprobe/internal/features"
	"vqprobe/internal/metrics"
	"vqprobe/internal/ml"
	"vqprobe/internal/ml/c45"
	"vqprobe/internal/serve"
)

// --- shared helpers -------------------------------------------------

// modelWithHash trains a small fully separable model (good /
// lan_cong_mild / lan_cong_severe over rtt×loss, mirroring the chaos
// harness's fixture — chaos itself imports this package, so the tests
// rebuild it locally) and stamps it with a snapshot hash so /healthz
// advertises a rollout identity.
func modelWithHash(t testing.TB, hash string) *serve.Model {
	t.Helper()
	var insts []ml.Instance
	for rtt := 10.0; rtt <= 200; rtt += 10 {
		for loss := 0.0; loss <= 10; loss++ {
			cls := "good"
			if rtt > 100 {
				if loss > 5 {
					cls = "lan_cong_severe"
				} else {
					cls = "lan_cong_mild"
				}
			}
			insts = append(insts, ml.Instance{
				Features: metrics.Vector{"mobile.rtt": rtt, "mobile.loss": loss},
				Class:    cls,
			})
		}
	}
	constructed, norm := features.Construct(ml.NewDataset(insts))
	ct, err := c45.Compile(c45.Default().TrainTree(constructed))
	if err != nil {
		t.Fatal(err)
	}
	m := serve.NewModel("exact", norm, ct)
	m.SetProvenance(hash, 0)
	return m
}

// startEngine boots a real vqserve engine behind an httptest server.
func startEngine(t testing.TB, hash string, reload func() (*serve.Model, error)) *httptest.Server {
	t.Helper()
	e := serve.NewEngine(modelWithHash(t, hash), serve.Config{Shards: 2, ReloadFunc: reload})
	t.Cleanup(func() { e.Close() })
	srv := httptest.NewServer(e.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// ndjson renders one diagnosable row per ID.
func ndjson(ids ...string) string {
	var b strings.Builder
	for _, id := range ids {
		fmt.Fprintf(&b, `{"id":%q,"features":{"mobile.rtt":150,"mobile.loss":8}}`+"\n", id)
	}
	return b.String()
}

// resultRow is the slice of a replica answer line the tests inspect.
type resultRow struct {
	ID    string `json:"id"`
	Class string `json:"class"`
	Err   string `json:"error"`
}

func readRows(t testing.TB, body io.Reader) []resultRow {
	t.Helper()
	var out []resultRow
	sc := bufio.NewScanner(body)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r resultRow
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("unparseable result line %q: %v", sc.Text(), err)
		}
		out = append(out, r)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("result stream: %v", err)
	}
	return out
}

func newRouter(t testing.TB, cfg Config) *Router {
	t.Helper()
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// --- range split ----------------------------------------------------

// splitOf runs the router's split on body and reports, per range, the
// replica and row count, plus the rows routed.
func splitOf(rt *Router, body string) ([][2]int, int) {
	b := getBatch(len(rt.reps))
	defer b.release()
	b.body = append(b.body, body...)
	rows, err := countRows(b.body)
	if err != nil {
		panic(err)
	}
	routed := rt.split(b, rows)
	var got [][2]int
	for _, sp := range b.spans {
		got = append(got, [2]int{sp.rep, sp.rows})
	}
	return got, routed
}

// TestRouteSplitFewestInflightFirst: ranges are even, and the replica
// with the fewest inflight rows takes the first one (and the larger
// share of an odd body).
func TestRouteSplitFewestInflightFirst(t *testing.T) {
	rt := newRouter(t, Config{Replicas: []string{"http://a", "http://b"}})
	if got, routed := splitOf(rt, ndjson("s0", "s1", "s2", "s3", "s4", "s5", "s6")); routed != 7 || !slices.Equal(got, [][2]int{{0, 4}, {1, 3}}) {
		t.Fatalf("idle fleet split %v (%d routed), want [[0 4] [1 3]]", got, routed)
	}
	rt.reps[0].inflight.Store(10)
	if got, _ := splitOf(rt, ndjson("s0", "s1", "s2", "s3", "s4", "s5", "s6")); !slices.Equal(got, [][2]int{{1, 4}, {0, 3}}) {
		t.Fatalf("split with replica 0 busier: %v, want [[1 4] [0 3]]", got)
	}
	if got, _ := splitOf(rt, ndjson("only")); !slices.Equal(got, [][2]int{{1, 1}}) {
		t.Fatalf("one-row body split %v, want it all on the idler replica 1", got)
	}
}

func TestRouteFallbackWhenOwnerDown(t *testing.T) {
	rt := newRouter(t, Config{Replicas: []string{"http://a", "http://b"}})
	rt.reps[0].state.Store(int32(Down))
	if got, routed := splitOf(rt, ndjson("s0", "s1", "s2")); routed != 3 || !slices.Equal(got, [][2]int{{1, 3}}) {
		t.Fatalf("down replica 0 still given rows: %v (%d routed)", got, routed)
	}
	rt.reps[1].state.Store(int32(Down))
	if got, routed := splitOf(rt, ndjson("s0")); routed != 0 || len(got) != 0 {
		t.Fatalf("fully down fleet routed %d rows to %v, want shed", routed, got)
	}
}

// TestRouteDegradedOnlyWithoutHealthyRoom pins the Degraded rule: a
// Degraded replica gets a range only when no Healthy replica has room,
// and it is never a failover target.
func TestRouteDegradedOnlyWithoutHealthyRoom(t *testing.T) {
	rt := newRouter(t, Config{Replicas: []string{"http://a", "http://b"}, MaxInflight: 4})
	rt.reps[0].state.Store(int32(Degraded))
	rt.reps[1].inflight.Store(3)
	if got, routed := splitOf(rt, ndjson("s0", "s1")); routed != 1 || !slices.Equal(got, [][2]int{{1, 1}}) {
		t.Fatalf("with Healthy room left: %v (%d routed), want one row on replica 1 and none on the Degraded one", got, routed)
	}
	rt.reps[1].inflight.Store(4)
	if got, routed := splitOf(rt, ndjson("s0", "s1")); routed != 2 || !slices.Equal(got, [][2]int{{0, 2}}) {
		t.Fatalf("with no Healthy room: %v (%d routed), want both rows on the Degraded replica 0", got, routed)
	}
	if got := rt.failoverTarget(1, []bool{false, true}); got != -1 {
		t.Fatalf("Degraded replica 0 accepted failover traffic (got %d)", got)
	}
	rt.reps[1].inflight.Store(0)
	if got := rt.failoverTarget(1, []bool{true, false}); got != 1 {
		t.Fatalf("failover from replica 0 went to %d, want the Healthy replica 1", got)
	}
}

// TestRouteRespectsMaxInflight: a range holds at most its replica's
// room under MaxInflight, and the rows past the fleet's room are shed at
// the router, answered in place with the overload error after the
// routed ones.
func TestRouteRespectsMaxInflight(t *testing.T) {
	a, b := newScriptedReplica(t), newScriptedReplica(t)
	rt := newRouter(t, Config{Replicas: []string{a.srv.URL, b.srv.URL}, MaxInflight: 4})
	rt.reps[0].inflight.Store(4)
	rt.reps[1].inflight.Store(1)
	ids := []string{"s0", "s1", "s2", "s3", "s4"}
	body := ndjson(ids[:3]...) + "\r\n" + ndjson(ids[3:]...)
	if got, routed := splitOf(rt, body); routed != 3 || !slices.Equal(got, [][2]int{{1, 3}}) {
		t.Fatalf("split %v (%d routed), want 3 rows on replica 1 and none on the saturated replica 0", got, routed)
	}

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", strings.NewReader(body)))
	if rec.Code != http.StatusOK || rec.Header().Get("Retry-After") != "1" {
		t.Fatalf("HTTP %d, Retry-After %q: %s", rec.Code, rec.Header().Get("Retry-After"), rec.Body.String())
	}
	rows := readRows(t, rec.Body)
	if len(rows) != len(ids) {
		t.Fatalf("got %d answers for %d rows", len(rows), len(ids))
	}
	for i, r := range rows {
		if r.ID != ids[i] {
			t.Fatalf("answer %d is %q's, want %q's", i, r.ID, ids[i])
		}
		if shed := strings.HasPrefix(r.Err, "router overloaded"); shed != (i >= 3) {
			t.Fatalf("answer %d: %+v; only rows past the room may be shed", i, r)
		}
	}
	if got := b.servedIDs(); !slices.Equal(got, ids[:3]) {
		t.Fatalf("replica 1 served %v, want %v", got, ids[:3])
	}
	if len(a.servedIDs()) != 0 {
		t.Fatal("the saturated replica still got rows")
	}
	if got := rt.obs.shed.Value(); got != 2 {
		t.Fatalf("shed counter %d, want 2", got)
	}
}

// --- health state machine -------------------------------------------

func TestHealthTransitions(t *testing.T) {
	var mu sync.Mutex
	mode := "ok"
	setMode := func(m string) { mu.Lock(); mode = m; mu.Unlock() }
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		m := mode
		mu.Unlock()
		w.Header().Set("Content-Type", "application/json")
		switch m {
		case "ok":
			fmt.Fprint(w, `{"status":"ok","model":{"snapshot_hash":"h1"}}`)
		case "degraded":
			fmt.Fprint(w, `{"status":"degraded","last_reload_error":"reload exploded","model":{"snapshot_hash":"h0"}}`)
		default:
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprint(w, "not json at all")
		}
	}))
	defer srv.Close()

	rt := newRouter(t, Config{Replicas: []string{srv.URL}, EjectAfter: 2})
	ctx := context.Background()

	rt.PollHealth(ctx)
	if s := rt.Statuses()[0]; s.State != "healthy" || s.ModelHash != "h1" {
		t.Fatalf("after ok poll: %+v", s)
	}

	setMode("degraded")
	rt.PollHealth(ctx)
	if s := rt.Statuses()[0]; s.State != "degraded" || !strings.Contains(s.LastError, "reload exploded") {
		t.Fatalf("after degraded poll: %+v", s)
	}
	if rt.reps[0].degradedG.Value() != 1 || rt.reps[0].healthyG.Value() != 0 {
		t.Fatalf("degraded gauges wrong: healthy=%v degraded=%v",
			rt.reps[0].healthyG.Value(), rt.reps[0].degradedG.Value())
	}

	// Failures eject only after EjectAfter consecutive misses.
	setMode("broken")
	rt.PollHealth(ctx)
	if s := rt.Statuses()[0]; s.State == "down" {
		t.Fatalf("ejected after a single failure: %+v", s)
	}
	rt.PollHealth(ctx)
	if s := rt.Statuses()[0]; s.State != "down" {
		t.Fatalf("not ejected after EjectAfter failures: %+v", s)
	}
	if rt.reps[0].healthyG.Value() != 0 {
		t.Fatal("down replica still advertises healthy gauge")
	}

	// A succeeding probe re-admits the replica.
	setMode("ok")
	rt.PollHealth(ctx)
	if s := rt.Statuses()[0]; s.State != "healthy" {
		t.Fatalf("no recovery after ok poll: %+v", s)
	}
	if got := rt.obs.healthPolls.Value(); got != 5 {
		t.Fatalf("healthPolls=%d, want 5", got)
	}
}
