package telemetry

import (
	"bytes"
	"math"
	"runtime"
	rmetrics "runtime/metrics"
	"testing"
	"time"
)

func TestUpdateRuntimeMetrics(t *testing.T) {
	UpdateRuntimeMetrics(nil) // nil-safe

	reg := NewRegistry()
	buf := make([]byte, 1<<20)
	runtime.GC() // ensure at least one pause is recorded
	_ = buf
	UpdateRuntimeMetrics(reg)
	snap := reg.Snapshot()

	for _, name := range []string{
		"runtime.heap.live.bytes",
		"runtime.heap.live.objects",
		"runtime.alloc.total.bytes",
		"runtime.alloc.total.objects",
		"runtime.goroutines",
	} {
		v, ok := snap.Gauges[name]
		if !ok {
			t.Fatalf("gauge %q missing", name)
		}
		if v <= 0 {
			t.Errorf("gauge %q = %v, want > 0", name, v)
		}
	}
	for _, name := range []string{
		"runtime.gc.pause.p50.seconds",
		"runtime.gc.pause.p99.seconds",
		"runtime.gc.pause.max.seconds",
		"runtime.sched.latency.p50.seconds",
		"runtime.sched.latency.p99.seconds",
	} {
		v, ok := snap.Gauges[name]
		if !ok {
			t.Fatalf("gauge %q missing", name)
		}
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			t.Errorf("gauge %q = %v, want finite and >= 0", name, v)
		}
	}
	if snap.Gauges["runtime.gc.pause.p50.seconds"] > snap.Gauges["runtime.gc.pause.max.seconds"] {
		t.Error("p50 pause exceeds max pause")
	}
}

func TestRuntimeMetricsReachExposition(t *testing.T) {
	reg := NewRegistry()
	UpdateRuntimeGauges(reg, time.Now().Add(-time.Second))
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, reg.Snapshot()); err != nil {
		t.Fatal(err)
	}
	samples, err := ParsePrometheus(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("exposition does not re-parse: %v\n%s", err, buf.String())
	}
	want := map[string]bool{
		"runtime_heap_live_bytes":           false,
		"runtime_gc_pause_p99_seconds":      false,
		"runtime_sched_latency_p99_seconds": false,
		"runtime_goroutines":                false,
	}
	for _, s := range samples {
		if _, ok := want[s.Name]; ok {
			want[s.Name] = true
		}
	}
	for name, seen := range want {
		if !seen {
			t.Errorf("sample %q missing from exposition", name)
		}
	}
}

func TestHistQuantile(t *testing.T) {
	h := &rmetrics.Float64Histogram{
		Counts:  []uint64{0, 10, 80, 10},
		Buckets: []float64{math.Inf(-1), 1, 2, 3, math.Inf(1)},
	}
	if got := histQuantile(h, 0.5); got != 3 {
		t.Errorf("p50 = %v, want 3 (upper bound of the median bucket)", got)
	}
	if got := histQuantile(h, 0.05); got != 2 {
		t.Errorf("p5 = %v, want 2", got)
	}
	if got := histQuantile(h, 1); got != 3 {
		t.Errorf("max = %v, want 3 (infinite top bound collapses)", got)
	}
	if got := histQuantile(nil, 0.5); got != 0 {
		t.Errorf("nil hist = %v, want 0", got)
	}
	empty := &rmetrics.Float64Histogram{Counts: []uint64{0, 0}, Buckets: []float64{0, 1, 2}}
	if got := histQuantile(empty, 0.99); got != 0 {
		t.Errorf("empty hist = %v, want 0", got)
	}
}

// tinySink keeps the tiny allocations below on the heap.
var tinySink *uint64

// TestReadAllocCountersCountTinyObjects: pointer-free objects under
// 16 B share 16-byte tiny blocks, and each must count as one object,
// as it does in runtime.MemStats.Mallocs, both in readAllocTick and in
// a phase's attribution. The counters advance only when a P's
// allocation cache is flushed, which runtime.GC does for every P.
func TestReadAllocCountersCountTinyObjects(t *testing.T) {
	const n = 1 << 14
	tel, err := New(Config{AllocAttribution: true})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	a := readAllocTick()
	sp := tel.StartSpan("t", "tiny")
	for i := 0; i < n; i++ {
		tinySink = new(uint64)
	}
	runtime.GC()
	sp.End()
	b := readAllocTick()
	if got := b.objects - a.objects; got < n {
		t.Errorf("readAllocTick counts %d objects for %d tiny allocations", got, n)
	}
	if pas := tel.PhaseAllocs(); len(pas) != 1 || pas[0].AllocObjects < n {
		t.Errorf("phase attribution for %d tiny allocations: %+v", n, pas)
	}
}

// TestReadAllocCounters: readAllocTick's cumulative counters advance
// by at least what a 1 MiB allocation adds.
func TestReadAllocCounters(t *testing.T) {
	a := readAllocTick()
	buf := make([]byte, 1<<20)
	b := readAllocTick()
	runtime.KeepAlive(buf)
	if b.bytes-a.bytes < 1<<20 {
		t.Errorf("alloc delta = %d bytes, want >= 1MiB", b.bytes-a.bytes)
	}
	if b.objects <= a.objects {
		t.Errorf("object counter did not advance: %d -> %d", a.objects, b.objects)
	}
}
