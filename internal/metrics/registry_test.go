package metrics

import (
	"math"
	"strconv"
	"strings"
	"sync"
	"testing"
)

func TestRegistryCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "total requests")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("counter = %d, want 5", c.Value())
	}
	if again := r.Counter("requests_total", "total requests"); again != c {
		t.Fatal("re-registration did not return the existing counter")
	}
	g := r.Gauge(`queue_depth{shard="2"}`, "queue depth")
	g.Set(3)
	g.Add(-1)
	if g.Value() != 2 {
		t.Fatalf("gauge = %g, want 2", g.Value())
	}

	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE requests_total counter",
		"requests_total 5",
		"# TYPE queue_depth gauge",
		`queue_depth{shard="2"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryHistogram(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`lat{stage="predict"}`, "latency", []float64{0.01, 0.1, 1})
	for _, v := range []float64{0.005, 0.05, 0.5, 5} {
		h.Observe(v)
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if h.Sum() != 5.555 {
		t.Fatalf("sum = %g, want 5.555", h.Sum())
	}
	var b strings.Builder
	r.WriteText(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE lat histogram",
		`lat_bucket{stage="predict",le="0.01"} 1`,
		`lat_bucket{stage="predict",le="0.1"} 2`,
		`lat_bucket{stage="predict",le="1"} 3`,
		`lat_bucket{stage="predict",le="+Inf"} 4`,
		`lat_sum{stage="predict"} 5.555`,
		`lat_count{stage="predict"} 4`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q in:\n%s", want, out)
		}
	}
}

func TestRegistryKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "")
	defer func() {
		if recover() == nil {
			t.Fatal("expected a panic registering x_total as a gauge")
		}
	}()
	r.Gauge("x_total", "")
}

func TestRegistryConcurrent(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("hits_total", "")
			h := r.Histogram("obs", "", LatencyBuckets)
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(float64(j) * 1e-6)
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("hits_total", "").Value(); got != 8000 {
		t.Fatalf("hits = %d, want 8000", got)
	}
	if got := r.Histogram("obs", "", nil).Count(); got != 8000 {
		t.Fatalf("observations = %d, want 8000", got)
	}
}

// TestObserveNMatchesObserve renders n Observe(v) calls and one
// ObserveN(v, n) side by side: bucket lines and _count must match
// exactly, _sum to the last bit where v is exact in binary and to
// 1e-12 relative otherwise. ObserveN(v, 0) records nothing.
func TestObserveNMatchesObserve(t *testing.T) {
	for _, tc := range []struct {
		v     float64
		n     uint64
		exact bool
	}{
		{0.5, 100, true},
		{3e-6, 32, false},
		{0.1, 7, false},
		{2, 1, true},
		{1.25e-4, 0, true},
	} {
		one, many := NewRegistry(), NewRegistry()
		h := one.Histogram("lat", "", LatencyBuckets)
		h.ObserveN(tc.v, tc.n)
		hm := many.Histogram("lat", "", LatencyBuckets)
		for i := uint64(0); i < tc.n; i++ {
			hm.Observe(tc.v)
		}
		var a, b strings.Builder
		one.WriteText(&a)
		many.WriteText(&b)
		la, lb := strings.Split(a.String(), "\n"), strings.Split(b.String(), "\n")
		if len(la) != len(lb) {
			t.Fatalf("v=%g n=%d: %d lines vs %d", tc.v, tc.n, len(la), len(lb))
		}
		for i := range la {
			if !strings.HasPrefix(la[i], "lat_sum ") {
				if la[i] != lb[i] {
					t.Errorf("v=%g n=%d: ObserveN renders %q, Observe %q", tc.v, tc.n, la[i], lb[i])
				}
				continue
			}
			sa, _ := strconv.ParseFloat(strings.TrimPrefix(la[i], "lat_sum "), 64)
			sb, _ := strconv.ParseFloat(strings.TrimPrefix(lb[i], "lat_sum "), 64)
			if tc.exact && sa != sb || math.Abs(sa-sb) > 1e-12*math.Abs(sb) {
				t.Errorf("v=%g n=%d: ObserveN sum %v, Observe sum %v", tc.v, tc.n, sa, sb)
			}
		}
		if tc.n == 0 && h.Count() != 0 {
			t.Errorf("ObserveN(v, 0) recorded %d samples", h.Count())
		}
	}
}

func TestHistogramExemplar(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram(`lat{stage="total"}`, "latency", []float64{0.01, 0.1, 1})
	h.Observe(0.005)
	h.Observe(0.05)
	h.SetExemplar(0.05, "1a2b")
	if ex := h.Exemplar(); ex == nil || ex.TraceID != "1a2b" || ex.Value != 0.05 {
		t.Fatalf("exemplar = %+v, want {1a2b 0.05}", h.Exemplar())
	}
	// The latest exemplar wins; empty trace IDs never replace one.
	h.Observe(0.5)
	h.SetExemplar(0.5, "c3d4")
	h.Observe(0.7)
	h.SetExemplar(0.7, "")
	if ex := h.Exemplar(); ex.TraceID != "c3d4" {
		t.Fatalf("exemplar = %+v, want c3d4", ex)
	}

	// Default exposition is exemplar-free and unchanged.
	var plain strings.Builder
	r.WriteText(&plain)
	if strings.Contains(plain.String(), "trace_id") {
		t.Errorf("0.0.4 exposition leaked an exemplar:\n%s", plain.String())
	}

	// OpenMetrics shows the exemplar on the first bucket containing its
	// value (0.5 -> le="1"), exactly once, and ends with # EOF.
	var om strings.Builder
	r.WriteOpenMetrics(&om)
	out := om.String()
	want := `lat_bucket{stage="total",le="1"} 4 # {trace_id="c3d4"} 0.5`
	if !strings.Contains(out, want) {
		t.Errorf("OpenMetrics missing %q in:\n%s", want, out)
	}
	if strings.Count(out, "trace_id") != 1 {
		t.Errorf("exemplar rendered %d times, want 1:\n%s", strings.Count(out, "trace_id"), out)
	}
	if !strings.HasSuffix(out, "# EOF\n") {
		t.Errorf("OpenMetrics output missing # EOF terminator")
	}
}

func TestExemplarAboveAllBucketsLandsOnInf(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "latency", []float64{0.01, 0.1})
	h.Observe(5)
	h.SetExemplar(5, "beef")
	var om strings.Builder
	r.WriteOpenMetrics(&om)
	want := `lat_bucket{le="+Inf"} 1 # {trace_id="beef"} 5`
	if !strings.Contains(om.String(), want) {
		t.Errorf("OpenMetrics missing %q in:\n%s", want, om.String())
	}
}

func TestExemplarConcurrent(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat", "", LatencyBuckets)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 500; j++ {
				h.Observe(float64(j) * 1e-6)
				h.SetExemplar(float64(j)*1e-6, "t")
				var b strings.Builder
				if j%100 == 0 {
					r.WriteOpenMetrics(&b)
				}
			}
		}(i)
	}
	wg.Wait()
	if h.Count() != 4000 {
		t.Fatalf("count = %d, want 4000", h.Count())
	}
}
