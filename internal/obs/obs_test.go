package obs

import (
	"bytes"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"vqprobe/internal/metrics"
)

// tick advances a plane-under-test on a virtual clock.
func tick(p *Plane, sec int) { p.Sample(time.Duration(sec) * time.Second) }

// buildPlane assembles a registry with one of each metric kind plus a
// plane over it.
func buildPlane(capacity int, slos []SLO) (*metrics.Registry, *Plane) {
	reg := metrics.NewRegistry()
	p := New(Config{Registry: reg, Capacity: capacity, SLOs: slos})
	return reg, p
}

func TestPlaneRingBasics(t *testing.T) {
	reg, p := buildPlane(4, nil)
	c := reg.Counter("jobs_total", "jobs")
	g := reg.Gauge("depth", "queue depth")
	h := reg.Histogram("lat_seconds", "latency", []float64{0.1, 1})

	for s := 1; s <= 6; s++ {
		c.Add(10)
		g.Set(float64(s))
		h.Observe(0.05)
		h.Observe(2) // overflow bucket
		tick(p, s)
	}

	if got := p.Ticks(); got != 6 {
		t.Fatalf("ticks = %d, want 6", got)
	}
	if got := p.Now(); got != 6*time.Second {
		t.Fatalf("now = %v, want 6s", got)
	}
	if v, ok := p.Last("jobs_total"); !ok || v != 60 {
		t.Fatalf("Last(jobs_total) = %v,%v, want 60,true", v, ok)
	}
	if v, ok := p.Last("depth"); !ok || v != 6 {
		t.Fatalf("Last(depth) = %v,%v, want 6,true", v, ok)
	}
	// Capacity 4: ring holds ticks 3..6; rate over the held window is
	// 10 counts/second.
	if r := p.Rate("jobs_total", 10*time.Second); r != 10 {
		t.Fatalf("Rate(jobs_total) = %v, want 10", r)
	}
	// Histogram rate counts observations: 2 per tick.
	if r := p.Rate("lat_seconds", 10*time.Second); r != 2 {
		t.Fatalf("Rate(lat_seconds) = %v, want 2", r)
	}

	snap := p.Snapshot()
	if len(snap.Series) != 3 {
		t.Fatalf("snapshot has %d series, want 3", len(snap.Series))
	}
	// Sorted by name: depth, jobs_total, lat_seconds.
	names := []string{"depth", "jobs_total", "lat_seconds"}
	for i, want := range names {
		if snap.Series[i].Name != want {
			t.Fatalf("series[%d] = %q, want %q", i, snap.Series[i].Name, want)
		}
	}
	lat := snap.Series[2]
	if len(lat.T) != 4 {
		t.Fatalf("ring kept %d samples, want 4 (capacity)", len(lat.T))
	}
	if lat.T[0] != int64(3*time.Second) || lat.T[3] != int64(6*time.Second) {
		t.Fatalf("ring window = [%d, %d], want [3s, 6s]", lat.T[0], lat.T[3])
	}
	// Each inter-sample window sees one 0.05 and one 2.0 observation:
	// p50 interpolates inside [0, 0.1], p99 reports the top finite bound.
	if lat.P99[1] != 1 {
		t.Fatalf("p99 = %v, want 1 (top finite bound)", lat.P99[1])
	}
}

func TestPlaneRateYoungRingAnchorsAtOrigin(t *testing.T) {
	reg, p := buildPlane(16, nil)
	c := reg.Counter("jobs_total", "jobs")
	c.Add(100)
	tick(p, 10)
	// One sample at t=10s holding 100: the window anchors at the
	// process origin (0 at t=0), so the rate is 100/10s.
	if r := p.Rate("jobs_total", time.Minute); r != 10 {
		t.Fatalf("Rate = %v, want 10", r)
	}
}

// TestSnapshotDeterminism pins the byte-identical contract: two planes
// fed the same load and tick sequence encode identically.
func TestSnapshotDeterminism(t *testing.T) {
	run := func() []byte {
		reg, p := buildPlane(32, DefaultServeSLOs())
		c := reg.Counter("vqserve_submitted_total", "n")
		e := reg.Counter("vqserve_errors_total", "n")
		h := reg.Histogram(`vqserve_stage_latency_seconds{stage="total"}`, "lat", []float64{0.01, 0.1, 1})
		rng := rand.New(rand.NewSource(7))
		for s := 1; s <= 40; s++ {
			for i := 0; i < 50; i++ {
				c.Inc()
				if rng.Intn(10) == 0 {
					e.Inc()
				}
				h.Observe(rng.Float64())
			}
			tick(p, s)
		}
		data, err := p.Snapshot().EncodeJSON()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return data
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same load, different snapshot encodings")
	}
}

// TestSnapshotMergeWorkerInvariance pins the sharded-collection
// contract: N per-worker planes ticked on the same clock merge to the
// same bytes regardless of how the load was split or the merge order —
// and match a single plane that saw the combined load.
func TestSnapshotMergeWorkerInvariance(t *testing.T) {
	const ticks, perTick = 20, 60
	bounds := []float64{0.25, 1, 2}

	// Deterministic load: item k at tick s contributes to counter,
	// gauge and histogram in a fixed way.
	load := func(regs []*metrics.Registry, planes []*Plane, split int) {
		cs := make([]*metrics.Counter, len(regs))
		gs := make([]*metrics.Gauge, len(regs))
		hs := make([]*metrics.Histogram, len(regs))
		for i, reg := range regs {
			cs[i] = reg.Counter("work_total", "n")
			gs[i] = reg.Gauge("inflight", "n")
			hs[i] = reg.Histogram("lat_seconds", "lat", bounds)
		}
		for s := 1; s <= ticks; s++ {
			for k := 0; k < perTick; k++ {
				w := 0
				if split > 1 {
					w = k % split
				}
				cs[w].Add(uint64(k%3 + 1))
				gs[w].Add(1)
				// 0.25 steps are binary-exact, so histogram sums add
				// associatively and the split cannot perturb bytes.
				hs[w].Observe(float64(k%7) * 0.25)
			}
			for _, p := range planes {
				tick(p, s)
			}
		}
	}

	build := func(n int) ([]*metrics.Registry, []*Plane) {
		regs := make([]*metrics.Registry, n)
		planes := make([]*Plane, n)
		for i := range regs {
			regs[i] = metrics.NewRegistry()
			planes[i] = New(Config{Registry: regs[i], Capacity: 64})
		}
		return regs, planes
	}

	encodeMerged := func(planes []*Plane, order []int) []byte {
		merged := planes[order[0]].Snapshot()
		for _, i := range order[1:] {
			if err := merged.Merge(planes[i].Snapshot()); err != nil {
				t.Fatalf("merge: %v", err)
			}
		}
		data, err := merged.EncodeJSON()
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		return data
	}

	// Reference: one plane sees everything.
	regs1, planes1 := build(1)
	load(regs1, planes1, 1)
	want := encodeMerged(planes1, []int{0})

	for _, workers := range []int{2, 4} {
		regs, planes := build(workers)
		load(regs, planes, workers)
		order := make([]int, workers)
		for i := range order {
			order[i] = i
		}
		got := encodeMerged(planes, order)
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: merged snapshot differs from single-plane reference", workers)
		}
		// Reverse merge order: commutativity.
		for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
			order[i], order[j] = order[j], order[i]
		}
		if got := encodeMerged(planes, order); !bytes.Equal(got, want) {
			t.Fatalf("workers=%d: merge is order-sensitive", workers)
		}
	}
}

func TestSnapshotMergeRejectsMismatch(t *testing.T) {
	rega, pa := buildPlane(8, nil)
	regb, pb := buildPlane(8, nil)
	rega.Counter("x", "n").Inc()
	regb.Counter("x", "n").Inc()
	tick(pa, 1)
	tick(pb, 2) // different tick time
	if err := pa.Snapshot().Merge(pb.Snapshot()); err == nil {
		t.Fatalf("merge accepted mismatched tick times")
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	reg, p := buildPlane(8, nil)
	reg.Counter("x_total", "n").Add(5)
	reg.Histogram("h", "h", []float64{1}).Observe(0.5)
	tick(p, 1)
	tick(p, 2)
	data, err := p.Snapshot().EncodeJSON()
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	back, err := DecodeSnapshot(data)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	again, err := back.EncodeJSON()
	if err != nil {
		t.Fatalf("re-encode: %v", err)
	}
	if !bytes.Equal(data, again) {
		t.Fatalf("snapshot does not round-trip through JSON")
	}
}

// TestPlaneConcurrentSampling exercises the plane under -race: writers
// hammer the registry while a reader polls snapshots and a ticker
// samples.
func TestPlaneConcurrentSampling(t *testing.T) {
	reg, p := buildPlane(16, DefaultServeSLOs())
	c := reg.Counter("vqserve_submitted_total", "n")
	h := reg.Histogram(`vqserve_stage_latency_seconds{stage="total"}`, "lat", []float64{0.01, 0.1, 1})

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					c.Inc()
					h.Observe(0.02)
				}
			}
		}()
	}
	for s := 1; s <= 50; s++ {
		tick(p, s)
		if s%10 == 0 {
			if _, err := p.Snapshot().EncodeJSON(); err != nil {
				t.Fatalf("snapshot: %v", err)
			}
			p.Alerts()
			p.Rate("vqserve_submitted_total", 5*time.Second)
		}
	}
	close(stop)
	wg.Wait()
}

// TestPromParseRoundTrip scrapes a live registry's text exposition and
// checks the parse reproduces Registry.Snapshot exactly.
func TestPromParseRoundTrip(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("jobs_total", "jobs done").Add(42)
	reg.Gauge(`depth{shard="0"}`, "queue depth").Set(3.5)
	h := reg.Histogram(`lat_seconds{stage="total"}`, "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}

	var buf bytes.Buffer
	reg.WriteText(&buf)
	got, err := ParsePromText(&buf)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	want := reg.Snapshot()
	if len(got) != len(want) {
		t.Fatalf("parsed %d series, want %d", len(got), len(want))
	}
	for i := range want {
		w, g := want[i], got[i]
		if g.FullName() != w.FullName() || g.Kind != w.Kind {
			t.Fatalf("series %d: got %s/%s, want %s/%s", i, g.FullName(), g.Kind, w.FullName(), w.Kind)
		}
		if g.Value != w.Value || g.Sum != w.Sum || g.Count != w.Count {
			t.Fatalf("series %s: value/sum/count mismatch: %+v vs %+v", w.FullName(), g, w)
		}
		if fmt.Sprint(g.Bounds) != fmt.Sprint(w.Bounds) || fmt.Sprint(g.Counts) != fmt.Sprint(w.Counts) {
			t.Fatalf("series %s: buckets mismatch: %v/%v vs %v/%v",
				w.FullName(), g.Bounds, g.Counts, w.Bounds, w.Counts)
		}
	}

	// OpenMetrics form (exemplars + # EOF) parses to the same result.
	buf.Reset()
	h.Observe(0.05)
	h.SetExemplar(0.05, "trace-1")
	reg.WriteOpenMetrics(&buf)
	if _, err := ParsePromText(&buf); err != nil {
		t.Fatalf("parse OpenMetrics: %v", err)
	}
}

func TestPromParseUntypedAndEdgeCases(t *testing.T) {
	in := "some_metric 12.5\n" +
		"# TYPE esc gauge\n" +
		"esc{msg=\"a,b}c\"} 1\n"
	got, err := ParsePromText(bytes.NewReader([]byte(in)))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(got) != 2 {
		t.Fatalf("parsed %d series, want 2", len(got))
	}
	if got[0].Kind != "gauge" || got[0].Value != 12.5 {
		t.Fatalf("untyped sample: %+v", got[0])
	}
	if got[1].Labels != `msg="a,b}c"` {
		t.Fatalf("quoted label body mangled: %q", got[1].Labels)
	}
}
