package route

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"vqprobe/internal/serve"
)

func TestRolloutStagedHappyPath(t *testing.T) {
	var reloadsA, reloadsB atomic.Int64
	a := startEngine(t, "v1", func() (*serve.Model, error) {
		reloadsA.Add(1)
		return modelWithHash(t, "v2"), nil
	})
	b := startEngine(t, "v1", func() (*serve.Model, error) {
		reloadsB.Add(1)
		return modelWithHash(t, "v2"), nil
	})
	rt := newRouter(t, Config{Replicas: []string{a.URL, b.URL}})

	rep, err := rt.Rollout(context.Background(), "v2")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != "complete" || rep.Hash != "v2" {
		t.Fatalf("rollout report: %+v", rep)
	}
	if rep.Canary != a.URL {
		t.Fatalf("canary %s, want first replica %s", rep.Canary, a.URL)
	}
	if len(rep.Stages) != 2 || rep.Stages[0].Outcome != "canary" || rep.Stages[1].Outcome != "reloaded" {
		t.Fatalf("stages: %+v", rep.Stages)
	}
	if reloadsA.Load() != 1 || reloadsB.Load() != 1 {
		t.Fatalf("reload counts a=%d b=%d, want 1 each", reloadsA.Load(), reloadsB.Load())
	}
	for _, s := range rt.Statuses() {
		if s.ModelHash != "v2" || s.State != "healthy" {
			t.Fatalf("post-rollout replica: %+v", s)
		}
	}
	if rt.obs.rollouts.Value() != 1 || rt.obs.rolloutsHeld.Value() != 0 {
		t.Fatalf("rollout counters: done=%d held=%d", rt.obs.rollouts.Value(), rt.obs.rolloutsHeld.Value())
	}
}

func TestRolloutHashMismatchHolds(t *testing.T) {
	a := startEngine(t, "v1", func() (*serve.Model, error) { return modelWithHash(t, "v2"), nil })
	b := startEngine(t, "v1", func() (*serve.Model, error) { return modelWithHash(t, "v2"), nil })
	rt := newRouter(t, Config{Replicas: []string{a.URL, b.URL}})

	rep, err := rt.Rollout(context.Background(), "v3-expected")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != "held" || !strings.Contains(rep.Reason, "expected v3-expected") {
		t.Fatalf("wrong-hash rollout: %+v", rep)
	}
	// The canary already reloaded before verification caught the wrong
	// artifact — but the fan-out must not have happened.
	if sts := rt.Statuses(); sts[1].ModelHash == "v2" {
		t.Fatalf("fan-out ran despite canary hash mismatch: %+v", sts[1])
	}
	if rt.obs.rolloutsHeld.Value() != 1 {
		t.Fatalf("rolloutsHeld=%d, want 1", rt.obs.rolloutsHeld.Value())
	}
}

// TestRolloutHeldOnDegraded pins the auto-hold: a fleet with a
// degraded replica refuses to start a rollout at all.
func TestRolloutHeldOnDegraded(t *testing.T) {
	var reloadsA atomic.Int64
	a := startEngine(t, "v1", func() (*serve.Model, error) {
		reloadsA.Add(1)
		return modelWithHash(t, "v2"), nil
	})
	b := startEngine(t, "v1", func() (*serve.Model, error) {
		return nil, errors.New("model file corrupted")
	})

	// Degrade replica B for real: its own reload fails, it keeps
	// serving the last-good snapshot and reports degraded.
	resp, err := http.Post(b.URL+"/-/reload", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("degrading reload answered HTTP %d", resp.StatusCode)
	}

	rt := newRouter(t, Config{Replicas: []string{a.URL, b.URL}})
	rep, err := rt.Rollout(context.Background(), "v2")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != "held" || !strings.Contains(rep.Reason, "degraded") {
		t.Fatalf("rollout into a degraded fleet: %+v", rep)
	}
	if reloadsA.Load() != 0 {
		t.Fatal("canary reloaded despite the degraded-replica hold")
	}
	if rt.obs.rolloutsHeld.Value() != 1 {
		t.Fatalf("rolloutsHeld=%d, want 1", rt.obs.rolloutsHeld.Value())
	}
}

// TestRolloutSplitBrainHolds: the fan-out halts the moment a replica
// loads a different artifact than the verified canary.
func TestRolloutSplitBrainHolds(t *testing.T) {
	a := startEngine(t, "v1", func() (*serve.Model, error) { return modelWithHash(t, "v2"), nil })
	b := startEngine(t, "v1", func() (*serve.Model, error) { return modelWithHash(t, "v2-other"), nil })
	rt := newRouter(t, Config{Replicas: []string{a.URL, b.URL}})

	rep, err := rt.Rollout(context.Background(), "")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != "held" || !strings.Contains(rep.Reason, "split brain") {
		t.Fatalf("split-brain rollout: %+v", rep)
	}
	last := rep.Stages[len(rep.Stages)-1]
	if last.Replica != b.URL || last.Outcome != "failed" || last.Hash != "v2-other" {
		t.Fatalf("split-brain stage: %+v", last)
	}
}

func TestRolloutSkipsDownReplica(t *testing.T) {
	a := startEngine(t, "v1", func() (*serve.Model, error) { return modelWithHash(t, "v2"), nil })
	dead := newScriptedReplica(t)
	deadURL := dead.srv.URL
	dead.srv.Close() // nothing listens there anymore

	rt := newRouter(t, Config{Replicas: []string{a.URL, deadURL}, EjectAfter: 1})
	rt.PollHealth(context.Background()) // ejects the dead replica

	rep, err := rt.Rollout(context.Background(), "v2")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != "complete" {
		t.Fatalf("rollout with a down replica: %+v", rep)
	}
	if len(rep.Stages) != 2 || rep.Stages[1].Outcome != "skipped_down" {
		t.Fatalf("stages: %+v", rep.Stages)
	}
}

// TestRolloutCanaryTrafficFailureHolds: a model that loads but cannot
// answer canary traffic must not fan out.
func TestRolloutCanaryTrafficFailureHolds(t *testing.T) {
	var reloadsB atomic.Int64
	a := startEngine(t, "v1", func() (*serve.Model, error) { return modelWithHash(t, "v2"), nil })
	b := startEngine(t, "v1", func() (*serve.Model, error) {
		reloadsB.Add(1)
		return modelWithHash(t, "v2"), nil
	})
	// A canary body the replica answers with a per-row error stands in
	// for "loads fine, serves garbage".
	rt := newRouter(t, Config{Replicas: []string{a.URL, b.URL}, CanaryBody: "not json\n"})

	rep, err := rt.Rollout(context.Background(), "v2")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Status != "held" || !strings.Contains(rep.Reason, "traffic probe") {
		t.Fatalf("failed-canary rollout: %+v", rep)
	}
	if reloadsB.Load() != 0 {
		t.Fatal("fan-out ran despite the canary traffic failure")
	}
}

func TestRolloutHTTPEndpoint(t *testing.T) {
	a := startEngine(t, "v1", func() (*serve.Model, error) { return modelWithHash(t, "v2"), nil })
	rt := newRouter(t, Config{Replicas: []string{a.URL}})
	srv := httptest.NewServer(rt.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/-/rollout?hash=v2", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rollout endpoint answered HTTP %d", resp.StatusCode)
	}
	var rep RolloutReport
	if err := json.NewDecoder(resp.Body).Decode(&rep); err != nil {
		t.Fatal(err)
	}
	if rep.Status != "complete" || rep.Hash != "v2" {
		t.Fatalf("endpoint report: %+v", rep)
	}

	// A second rollout expecting a hash the replica will not load holds
	// with 409.
	resp2, err := http.Post(srv.URL+"/-/rollout?hash=v9", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusConflict {
		t.Fatalf("held rollout answered HTTP %d, want 409", resp2.StatusCode)
	}
}

// benchBody is the 100-row narrow /diagnose body the router benches
// send.
func benchBody() string {
	ids := make([]string, benchRows)
	for i := range ids {
		ids[i] = fmt.Sprintf("sess-%d", i)
	}
	return ndjson(ids...)
}

const benchRows = 100

// benchPost sends body through h b.N times and reports ns/row beside
// ns/op.
func benchPost(b *testing.B, h http.Handler, body string) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/diagnose", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("HTTP %d", rec.Code)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*benchRows), "ns/row")
}

// BenchmarkRouterDiagnose times one 100-row narrow /diagnose body per
// iteration through the router over two real engines, the router's
// split, fan-out, answer reads and merge plus both replicas' work;
// ns/row is the figure that reads against serve's
// BenchmarkDiagnoseHandlerNarrow.
func BenchmarkRouterDiagnose(b *testing.B) {
	a, c := startEngine(b, "h1", nil), startEngine(b, "h1", nil)
	rt := newRouter(b, Config{Replicas: []string{a.URL, c.URL}})
	benchPost(b, rt.Handler(), benchBody())
}

// BenchmarkRouterFailover times the same body when its first range
// fails: the replica it goes to answers one row and then its
// connection dies, and the range's other rows fail over to a real
// engine, which also answers the second range. Read against
// BenchmarkRouterDiagnose, it is the cost of detecting the failure and
// re-routing.
func BenchmarkRouterFailover(b *testing.B) {
	broken := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Content-Type", "application/x-ndjson")
		io.WriteString(w, `{"id":"sess-0","class":"lan_cong_severe","severity":"severe","cause":"lan_cong"}`+"\n")
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	b.Cleanup(broken.Close)
	healthy := startEngine(b, "h1", nil)
	// EjectAfter is effectively infinite so the broken replica keeps
	// taking (and failing) the first range every iteration.
	rt := newRouter(b, Config{Replicas: []string{broken.URL, healthy.URL}, EjectAfter: 1 << 30})
	benchPost(b, rt.Handler(), benchBody())
	if rt.obs.failovers.Value() < uint64(b.N) {
		b.Fatalf("%d failovers in %d iterations", rt.obs.failovers.Value(), b.N)
	}
}
