package metrics

// This file is the operational-metrics half of the package: a small,
// dependency-free counters/gauges/histograms registry with Prometheus
// text exposition, written for the serving engine (the feature-vector
// half above is the ML substrate). Series names may carry a literal
// label set, e.g. `vqserve_stage_latency_seconds{stage="queue"}`;
// series sharing a base name form one family in the exposition output.

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. Safe for concurrent
// use; the zero value is ready.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float-valued metric that can go up and down. Safe for
// concurrent use; the zero value is ready.
type Gauge struct{ bits atomic.Uint64 }

// Set replaces the value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adjusts the value by delta.
func (g *Gauge) Add(delta float64) {
	for {
		old := g.bits.Load()
		val := math.Float64frombits(old) + delta
		if g.bits.CompareAndSwap(old, math.Float64bits(val)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram counts observations into cumulative le-buckets, Prometheus
// style. Safe for concurrent use.
type Histogram struct {
	bounds  []float64 // ascending upper bounds; +Inf is implicit
	counts  []atomic.Uint64
	sumBits atomic.Uint64
	count   atomic.Uint64
	ex      atomic.Pointer[Exemplar]
}

// Exemplar links a recent observation to the trace that produced it,
// in the OpenMetrics sense: scrape the histogram, follow the trace ID
// to the exact request behind a latency bucket.
type Exemplar struct {
	TraceID string
	Value   float64
}

func newHistogram(bounds []float64) *Histogram {
	b := append([]float64{}, bounds...)
	sort.Float64s(b)
	return &Histogram{bounds: b, counts: make([]atomic.Uint64, len(b)+1)}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) { h.ObserveN(v, 1) }

// ObserveN records n samples of the same value v at the cost of one:
// the buckets and count move exactly as n Observe(v) calls would move
// them, and the sum by v*n, which is exact whenever v*n is (n
// Observe(v) calls round at each step instead). n == 0 records
// nothing.
func (h *Histogram) ObserveN(v float64, n uint64) {
	if n == 0 {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v) // first bound >= v
	h.counts[i].Add(n)
	h.count.Add(n)
	add := v * float64(n)
	for {
		old := h.sumBits.Load()
		sum := math.Float64frombits(old) + add
		if h.sumBits.CompareAndSwap(old, math.Float64bits(sum)) {
			return
		}
	}
}

// SetExemplar retains an already observed value as the histogram's
// exemplar, tagged with the originating trace ID; an empty ID keeps
// the previous one. The latest exemplar wins; exposition shows it only
// in OpenMetrics output (the 0.0.4 text format has no exemplar syntax).
func (h *Histogram) SetExemplar(v float64, traceID string) {
	if traceID != "" {
		h.ex.Store(&Exemplar{TraceID: traceID, Value: v})
	}
}

// Exemplar returns the most recently attached exemplar, or nil.
func (h *Histogram) Exemplar() *Exemplar { return h.ex.Load() }

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// LatencyBuckets is a general-purpose latency bucket layout in seconds,
// spanning 1µs to 1s.
var LatencyBuckets = []float64{
	1e-6, 2.5e-6, 5e-6, 1e-5, 2.5e-5, 5e-5, 1e-4, 2.5e-4, 5e-4,
	1e-3, 2.5e-3, 5e-3, 1e-2, 2.5e-2, 5e-2, 0.1, 0.25, 0.5, 1,
}

// counterFunc is a counter whose total another component keeps (see
// RegisterGoRuntime). The registry calls it, under its lock, each time
// it renders or snapshots the series, so it must not use the registry.
type counterFunc func() float64

// series is one registered metric instance.
type series struct {
	labels string // label body without braces, "" for none
	metric any    // *Counter, counterFunc, *Gauge or *Histogram
}

// family groups series sharing a base name.
type family struct {
	name, help, kind string
	order            []string
	series           map[string]*series
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Registration is idempotent: asking for an existing
// series returns it.
type Registry struct {
	mu       sync.Mutex
	order    []string
	families map[string]*family
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// splitName separates `base{label="x"}` into base and label body.
func splitName(name string) (base, labels string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	return name[:i], strings.TrimSuffix(name[i+1:], "}")
}

func (r *Registry) register(name, help, kind string, mk func() any) any {
	base, labels := splitName(name)
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.families[base]
	if f == nil {
		f = &family{name: base, help: help, kind: kind, series: map[string]*series{}}
		r.families[base] = f
		r.order = append(r.order, base)
	}
	if f.kind != kind {
		panic(fmt.Sprintf("metrics: %s registered as %s, requested as %s", base, f.kind, kind))
	}
	s := f.series[labels]
	if s == nil {
		s = &series{labels: labels, metric: mk()}
		f.series[labels] = s
		f.order = append(f.order, labels)
	}
	return s.metric
}

// Counter returns (registering if needed) the named counter.
func (r *Registry) Counter(name, help string) *Counter {
	return r.register(name, help, "counter", func() any { return &Counter{} }).(*Counter)
}

// Gauge returns (registering if needed) the named gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	return r.register(name, help, "gauge", func() any { return &Gauge{} }).(*Gauge)
}

// Histogram returns (registering if needed) the named histogram; bounds
// are the bucket upper limits (+Inf is implicit) and are fixed by the
// first registration.
func (r *Registry) Histogram(name, help string, bounds []float64) *Histogram {
	return r.register(name, help, "histogram", func() any { return newHistogram(bounds) }).(*Histogram)
}

// withLabel renders a label body plus an optional extra label.
func withLabel(labels, extra string) string {
	switch {
	case labels == "" && extra == "":
		return ""
	case labels == "":
		return "{" + extra + "}"
	case extra == "":
		return "{" + labels + "}"
	default:
		return "{" + labels + "," + extra + "}"
	}
}

// WriteText renders every registered metric in Prometheus text
// exposition format (version 0.0.4). Output is byte-identical to what
// it was before exemplar support existed: exemplars only appear in
// WriteOpenMetrics.
func (r *Registry) WriteText(w io.Writer) {
	r.writeText(w, false)
}

// WriteOpenMetrics renders the registry with OpenMetrics extensions:
// histogram buckets carry `# {trace_id="..."} value` exemplars (on the
// first bucket wide enough to contain the exemplar's value) and the
// output ends with the mandatory `# EOF` marker.
func (r *Registry) WriteOpenMetrics(w io.Writer) {
	r.writeText(w, true)
	fmt.Fprint(w, "# EOF\n")
}

func (r *Registry) writeText(w io.Writer, openMetrics bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, base := range r.order {
		f := r.families[base]
		if f.help != "" {
			fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
		}
		fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.kind)
		for _, labels := range f.order {
			s := f.series[labels]
			switch m := s.metric.(type) {
			case *Counter:
				fmt.Fprintf(w, "%s%s %d\n", f.name, withLabel(labels, ""), m.Value())
			case counterFunc:
				fmt.Fprintf(w, "%s%s %s\n", f.name, withLabel(labels, ""), formatFloat(m()))
			case *Gauge:
				fmt.Fprintf(w, "%s%s %s\n", f.name, withLabel(labels, ""), formatFloat(m.Value()))
			case *Histogram:
				var ex *Exemplar
				if openMetrics {
					ex = m.Exemplar()
				}
				exSuffix := func(bound float64) string {
					if ex == nil || ex.Value > bound {
						return ""
					}
					suffix := fmt.Sprintf(" # {trace_id=%q} %s", ex.TraceID, formatFloat(ex.Value))
					ex = nil // an exemplar annotates exactly one bucket
					return suffix
				}
				var cum uint64
				for i, bound := range m.bounds {
					cum += m.counts[i].Load()
					le := `le="` + formatFloat(bound) + `"`
					fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name, withLabel(labels, le), cum, exSuffix(bound))
				}
				cum += m.counts[len(m.bounds)].Load()
				fmt.Fprintf(w, "%s_bucket%s %d%s\n", f.name, withLabel(labels, `le="+Inf"`), cum, exSuffix(math.Inf(1)))
				fmt.Fprintf(w, "%s_sum%s %s\n", f.name, withLabel(labels, ""), formatFloat(m.Sum()))
				fmt.Fprintf(w, "%s_count%s %d\n", f.name, withLabel(labels, ""), m.Count())
			}
		}
	}
}

func formatFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// SeriesSnapshot is one registered series' point-in-time state, the
// introspection form the obs telemetry plane samples. Counter and gauge
// values land in Value; histograms carry their bucket layout and
// per-bucket (non-cumulative) counts. Bounds is shared with the live
// histogram — callers must not mutate it; Counts is freshly copied.
type SeriesSnapshot struct {
	Name   string // base family name
	Labels string // label body without braces, "" for none
	Kind   string // "counter", "gauge" or "histogram"
	Value  float64
	// Histogram-only fields:
	Bounds []float64 // ascending bucket upper bounds; +Inf implicit
	Counts []uint64  // per-bucket counts, len(Bounds)+1 (last = overflow)
	Sum    float64
	Count  uint64
}

// FullName renders the series' registration name (base plus label set).
func (s *SeriesSnapshot) FullName() string {
	if s.Labels == "" {
		return s.Name
	}
	return s.Name + "{" + s.Labels + "}"
}

// Snapshot returns the state of every registered series, families in
// registration order and series within a family in registration order —
// a deterministic enumeration for the same registration and load
// history. Individual metric reads are atomic; a histogram's buckets,
// sum and count are read without a collective lock, so under concurrent
// observation they may straddle an in-flight Observe (fine for
// monitoring; quiesce writers for exact snapshots).
func (r *Registry) Snapshot() []SeriesSnapshot {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []SeriesSnapshot
	for _, base := range r.order {
		f := r.families[base]
		for _, labels := range f.order {
			s := f.series[labels]
			snap := SeriesSnapshot{Name: f.name, Labels: labels, Kind: f.kind}
			switch m := s.metric.(type) {
			case *Counter:
				snap.Value = float64(m.Value())
			case counterFunc:
				snap.Value = m()
			case *Gauge:
				snap.Value = m.Value()
			case *Histogram:
				snap.Bounds = m.bounds
				snap.Counts = make([]uint64, len(m.counts))
				for i := range m.counts {
					snap.Counts[i] = m.counts[i].Load()
				}
				snap.Sum = m.Sum()
				snap.Count = m.Count()
			}
			out = append(out, snap)
		}
	}
	return out
}

// Handler serves the registry over HTTP as a /metrics endpoint. The
// default output is Prometheus text 0.0.4; a scraper whose Accept
// header asks for application/openmetrics-text gets the OpenMetrics
// rendering, which is where histogram exemplars appear.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req != nil && strings.Contains(req.Header.Get("Accept"), "application/openmetrics-text") {
			w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
			r.WriteOpenMetrics(w)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WriteText(w)
	})
}
