package route

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
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

// --- routing picker -------------------------------------------------

func TestRouteStickyOwner(t *testing.T) {
	rt := newRouter(t, Config{Replicas: []string{"http://a", "http://b", "http://c"}})
	owner := rt.route("session-42", 1, nil)
	if owner < 0 {
		t.Fatal("healthy fleet refused a row")
	}
	for i := 0; i < 50; i++ {
		if got := rt.route("session-42", 1, nil); got != owner {
			t.Fatalf("sticky routing broke: pick %d then %d", owner, got)
		}
	}
	if owner != rt.ring.owner("session-42") {
		t.Fatalf("route() picked %d, ring owner is %d", owner, rt.ring.owner("session-42"))
	}
}

func TestRouteFallbackWhenOwnerDown(t *testing.T) {
	rt := newRouter(t, Config{Replicas: []string{"http://a", "http://b"}})
	owner := rt.ring.owner("sess")
	rt.reps[owner].state.Store(int32(Down))
	got := rt.route("sess", 1, nil)
	if got == owner || got < 0 {
		t.Fatalf("down owner %d still picked (got %d)", owner, got)
	}
	rt.reps[1-owner].state.Store(int32(Down))
	if got := rt.route("sess", 1, nil); got != -1 {
		t.Fatalf("fully down fleet routed to %d, want shed", got)
	}
}

func TestRouteDegradedKeepsStickyButNoFailover(t *testing.T) {
	rt := newRouter(t, Config{Replicas: []string{"http://a", "http://b"}})
	owner := rt.ring.owner("sess")
	rt.reps[owner].state.Store(int32(Degraded))
	// A degraded owner keeps its sticky traffic: it still answers
	// correctly from the last-good model, and shifting would churn
	// session state for nothing.
	if got := rt.route("sess", 1, nil); got != owner {
		t.Fatalf("degraded owner lost its sticky traffic: want %d got %d", owner, got)
	}
	// But it must never absorb other replicas' failover rows.
	if got := rt.route("", 1, func(i int) bool { return i == 1-owner }); got != -1 {
		t.Fatalf("degraded replica %d accepted failover traffic (got %d)", owner, got)
	}
}

func TestRouteRespectsMaxInflight(t *testing.T) {
	rt := newRouter(t, Config{Replicas: []string{"http://a", "http://b"}, MaxInflight: 4})
	owner := rt.ring.owner("sess")
	rt.reps[owner].inflight.Store(4)
	got := rt.route("sess", 1, nil)
	if got == owner {
		t.Fatal("saturated owner still picked")
	}
	if got < 0 {
		t.Fatal("fallback with room refused the row")
	}
	if rt.reps[owner].shedC.Value() != 1 {
		t.Fatalf("owner refusal not recorded: shedC=%d", rt.reps[owner].shedC.Value())
	}
	rt.reps[1-owner].inflight.Store(4)
	if got := rt.route("sess", 1, nil); got != -1 {
		t.Fatalf("fully saturated fleet routed to %d, want shed", got)
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

// --- ring -----------------------------------------------------------

func TestRingDeterministicAndBalanced(t *testing.T) {
	urls := []string{"http://a", "http://b", "http://c"}
	r1, r2 := buildRing(urls, 64), buildRing(urls, 64)
	if len(r1.points) != len(urls)*64 {
		t.Fatalf("ring has %d points, want %d", len(r1.points), len(urls)*64)
	}
	for i := range r1.points {
		if r1.points[i] != r2.points[i] {
			t.Fatalf("ring build is not deterministic at point %d", i)
		}
	}
	owned := make(map[int]int)
	for i := 0; i < 3000; i++ {
		owned[r1.owner(fmt.Sprintf("session-%d", i))]++
	}
	for idx := range urls {
		if owned[idx] == 0 {
			t.Fatalf("replica %d owns no sessions: %v", idx, owned)
		}
	}
	// Same ID, same owner — forever.
	for i := 0; i < 100; i++ {
		if r1.owner("pinned") != r2.owner("pinned") {
			t.Fatal("owner lookup is unstable")
		}
	}
}

// TestRingBalancedForPortOnlyURLs is the regression pin for the hash
// finalizer: raw FNV-64a clustered vnode points for URLs differing only
// in the port (the standard local-fleet layout), to the point of one
// replica owning zero sessions for some port pairs.
func TestRingBalancedForPortOnlyURLs(t *testing.T) {
	for port := 30000; port < 60000; port += 101 {
		urls := []string{
			fmt.Sprintf("http://127.0.0.1:%d", port),
			fmt.Sprintf("http://127.0.0.1:%d", port+2),
		}
		r := buildRing(urls, 64)
		owned := [2]int{}
		for i := 0; i < 1000; i++ {
			owned[r.owner(fmt.Sprintf("session-%d", i))]++
		}
		// 20% minimum share: loose enough for hash noise, tight enough
		// that the pre-fix degenerate layouts (0–2 sessions) fail loudly.
		if owned[0] < 200 || owned[1] < 200 {
			t.Fatalf("ports %d/%d: lopsided ownership %v", port, port+2, owned)
		}
	}
}

// TestRingHashMatchesFNV pins the inline hash to hash/fnv's FNV-64a
// followed by the same avalanche mixer, on empty, ASCII, non-ASCII and
// long strings.
func TestRingHashMatchesFNV(t *testing.T) {
	ref := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		x := h.Sum64()
		x ^= x >> 33
		x *= 0xff51afd7ed558ccd
		x ^= x >> 33
		x *= 0xc4ceb9fe1a85ec53
		x ^= x >> 33
		return x
	}
	inputs := []string{"", "a", "s0", "sess-42", "http://127.0.0.1:8701#63", "ünïcødé  ", "\x00\xff\xfe", strings.Repeat("long-session-id/", 500)}
	for _, s := range inputs {
		if got, want := fnv64(s), ref(s); got != want {
			t.Errorf("fnv64(%.40q) = %#x, want %#x", s, got, want)
		}
	}
}

// TestRingOwnersGolden pins where fixed session IDs land on a fixed
// three-replica ring, so sticky sessions keep their replica across
// router upgrades.
func TestRingOwnersGolden(t *testing.T) {
	rg := buildRing([]string{"http://127.0.0.1:8701", "http://127.0.0.1:8702", "http://127.0.0.1:8703"}, 64)
	ids := []string{"", "s0", "s1", "sess-7", "sess-42", "client-9/session-12", "ünïcødé", "<s5>& ", "a-very-long-session-identifier-0123456789abcdef0123456789abcdef"}
	want := []int{2, 1, 1, 0, 1, 0, 0, 1, 2}
	for i := 0; i < 24; i++ {
		ids = append(ids, fmt.Sprintf("sess-%d", i))
	}
	want = append(want, 2, 2, 2, 1, 1, 1, 0, 0, 0, 0, 0, 1, 0, 0, 1, 0, 0, 2, 1, 1, 2, 1, 0, 1)
	for i, id := range ids {
		if got := rg.owner(id); got != want[i] {
			t.Errorf("owner(%q) = %d, want %d", id, got, want[i])
		}
	}
}
