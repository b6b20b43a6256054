package metrics

import (
	"bytes"
	"strconv"
	"strings"
	"testing"
)

// runtimeValue renders reg and returns the value of series name.
func runtimeValue(t *testing.T, reg *Registry, name string) float64 {
	t.Helper()
	var b bytes.Buffer
	reg.WriteText(&b)
	for _, line := range strings.Split(b.String(), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("%s missing from:\n%s", name, b.String())
	return 0
}

var runtimeSink [][]byte

// TestGoRuntimeSeries checks that the runtime totals render as
// counters, read afresh at each scrape, and appear in snapshots.
func TestGoRuntimeSeries(t *testing.T) {
	reg := NewRegistry()
	RegisterGoRuntime(reg, "vqtest")
	RegisterGoRuntime(reg, "vqtest") // idempotent, like every registration
	before := runtimeValue(t, reg, "vqtest_go_heap_allocs_bytes_total")
	for i := 0; i < 64; i++ {
		runtimeSink = append(runtimeSink, make([]byte, 1<<12))
	}
	runtimeSink = nil
	// The runtime batches its allocation counts per P, so the total can
	// trail the latest allocations.
	if after := runtimeValue(t, reg, "vqtest_go_heap_allocs_bytes_total"); after < before+32<<12 {
		t.Fatalf("allocated bytes went %v → %v over 256 KiB of allocations", before, after)
	}
	if user := runtimeValue(t, reg, "vqtest_go_cpu_user_seconds_total"); user < 0 {
		t.Fatalf("user CPU %v", user)
	}
	if gc := runtimeValue(t, reg, "vqtest_go_cpu_gc_seconds_total"); gc < 0 {
		t.Fatalf("GC CPU %v", gc)
	}
	var b bytes.Buffer
	reg.WriteText(&b)
	if n := strings.Count(b.String(), "# TYPE vqtest_go_"); n != 3 || !strings.Contains(b.String(), "# TYPE vqtest_go_cpu_gc_seconds_total counter") {
		t.Fatalf("want 3 runtime counter families, got %d:\n%s", n, b.String())
	}
	n := 0
	for _, s := range reg.Snapshot() {
		if strings.HasPrefix(s.Name, "vqtest_go_") && s.Kind == "counter" {
			n++
		}
	}
	if n != 3 {
		t.Fatalf("snapshot holds %d runtime counters, want 3", n)
	}
}
