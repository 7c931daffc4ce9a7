package telemetry

import (
	"math"
	"runtime/metrics"
)

// Runtime-metrics collection: a scrape-time sweep over the
// runtime/metrics interface (cheap, no stop-the-world, unlike
// ReadMemStats) that publishes heap-liveness, allocation-throughput,
// scheduler and GC-latency gauges into a Registry. The latency
// distributions (/gc/pauses, /sched/latencies) arrive as cumulative
// Float64Histograms; they are reduced to p50/p90/p99/max gauges by
// walking the bucket counts, which is what dashboards consume.

// runtimeGaugeNames maps runtime/metrics counters to registry gauge
// names (scalar metrics only; histograms are handled separately).
var runtimeGaugeNames = []struct {
	metric, gauge string
}{
	{"/memory/classes/heap/objects:bytes", "runtime.heap.live.bytes"},
	{"/gc/heap/objects:objects", "runtime.heap.live.objects"},
	{"/gc/heap/goal:bytes", "runtime.gc.goal.bytes"},
	{"/sched/goroutines:goroutines", "runtime.goroutines"},
}

// runtimeHistNames maps runtime/metrics latency histograms to the
// gauge-name prefix their quantiles are published under.
var runtimeHistNames = []struct {
	metric, prefix string
}{
	{"/gc/pauses:seconds", "runtime.gc.pause"},
	{"/sched/latencies:seconds", "runtime.sched.latency"},
}

// UpdateRuntimeMetrics refreshes the runtime/metrics-backed gauges on
// reg: heap live bytes/objects, GC goal, cumulative allocation
// counters, goroutine count, and GC-pause / scheduler-latency
// quantiles. Call it at scrape time; it is nil-safe.
func UpdateRuntimeMetrics(reg *Registry) {
	if reg == nil {
		return
	}
	samples := make([]metrics.Sample, 0, len(runtimeGaugeNames)+len(runtimeHistNames))
	for _, g := range runtimeGaugeNames {
		samples = append(samples, metrics.Sample{Name: g.metric})
	}
	for _, h := range runtimeHistNames {
		samples = append(samples, metrics.Sample{Name: h.metric})
	}
	metrics.Read(samples)
	for i, g := range runtimeGaugeNames {
		if samples[i].Value.Kind() == metrics.KindUint64 {
			reg.Gauge(g.gauge).Set(float64(samples[i].Value.Uint64()))
		}
	}
	// The allocation totals share readAllocTick's object count, tiny
	// objects included.
	t := readAllocTick()
	reg.Gauge("runtime.alloc.total.bytes").Set(float64(t.bytes))
	reg.Gauge("runtime.alloc.total.objects").Set(float64(t.objects))
	for i, h := range runtimeHistNames {
		s := samples[len(runtimeGaugeNames)+i]
		if s.Value.Kind() != metrics.KindFloat64Histogram {
			continue
		}
		hist := s.Value.Float64Histogram()
		reg.Gauge(h.prefix + ".p50.seconds").Set(histQuantile(hist, 0.50))
		reg.Gauge(h.prefix + ".p90.seconds").Set(histQuantile(hist, 0.90))
		reg.Gauge(h.prefix + ".p99.seconds").Set(histQuantile(hist, 0.99))
		reg.Gauge(h.prefix + ".max.seconds").Set(histQuantile(hist, 1))
	}
}

// histQuantile estimates quantile q of a runtime/metrics cumulative
// histogram, reporting the upper bound of the bucket the quantile
// falls in (conservative: the true value is at most the reported one).
// Buckets has len(Counts)+1 boundaries and may open with -Inf or close
// with +Inf; infinite bounds collapse onto their finite neighbor.
func histQuantile(h *metrics.Float64Histogram, q float64) float64 {
	if h == nil || len(h.Counts) == 0 || len(h.Buckets) != len(h.Counts)+1 {
		return 0
	}
	var total uint64
	for _, c := range h.Counts {
		total += c
	}
	if total == 0 {
		return 0
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.Counts {
		cum += c
		if cum >= target {
			lo, hi := h.Buckets[i], h.Buckets[i+1]
			if math.IsInf(hi, 1) {
				hi = lo
			}
			if math.IsInf(hi, -1) {
				hi = 0
			}
			return hi
		}
	}
	return h.Buckets[len(h.Buckets)-1]
}
