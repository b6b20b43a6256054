package metrics

import rtmetrics "runtime/metrics"

// goRuntimeSeries are the Go runtime totals RegisterGoRuntime exports:
// the CPU split between user code and the garbage collector, and the
// bytes allocated, whose rate drives the collector's share.
var goRuntimeSeries = []struct{ suffix, sample, help string }{
	{"_go_cpu_gc_seconds_total", "/cpu/classes/gc/total:cpu-seconds",
		"CPU seconds the Go garbage collector has used (runtime/metrics estimate; compare with _go_cpu_user_seconds_total only)"},
	{"_go_cpu_user_seconds_total", "/cpu/classes/user:cpu-seconds",
		"CPU seconds Go user code has used (runtime/metrics estimate)"},
	{"_go_heap_allocs_bytes_total", "/gc/heap/allocs:bytes",
		"bytes allocated on the Go heap"},
}

// RegisterGoRuntime adds the process's Go runtime totals to reg as
// prefix_go_cpu_gc_seconds_total, prefix_go_cpu_user_seconds_total and
// prefix_go_heap_allocs_bytes_total. They are read through
// runtime/metrics when the registry renders or snapshots them, so they
// cost nothing between scrapes.
func RegisterGoRuntime(reg *Registry, prefix string) {
	for _, s := range goRuntimeSeries {
		name := s.sample
		read := counterFunc(func() float64 {
			sample := []rtmetrics.Sample{{Name: name}}
			rtmetrics.Read(sample)
			switch v := sample[0].Value; v.Kind() {
			case rtmetrics.KindFloat64:
				return v.Float64()
			case rtmetrics.KindUint64:
				return float64(v.Uint64())
			}
			return 0 // not supported by this Go version
		})
		reg.register(prefix+s.suffix, s.help, "counter", func() any { return read }) // a repeat keeps the first
	}
}
