// Package telemetry is the observability layer of the reproduction: a
// stdlib-only, low-overhead subsystem the simulator and the RL
// controllers report into. It provides
//
//   - typed counters, gauges and histograms behind a Registry (atomic
//     increments on the hot path, snapshot-on-read);
//   - a ring-buffered structured event tracer with deterministic 1-in-N
//     sampling and pluggable sinks (JSONL, CSV, in-memory);
//   - per-window snapshots (the paper's 1K-access windows) combining
//     simulator throughput metrics with controller learning state;
//   - a RunManifest written alongside every run for reproducibility.
//
// Every type is nil-safe: methods on a nil *Registry, *Counter,
// *Collector, ... are no-ops, so instrumented code never branches on
// "is telemetry enabled" — it simply holds nil handles when disabled,
// and the disabled hot-path cost is one nil check (see
// BenchmarkTelemetryOverhead).
package telemetry

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"resemble/internal/metrics"
)

// Counter is a monotonically increasing uint64. A nil Counter is a
// valid no-op handle.
type Counter struct {
	v atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// Value returns the current count (0 for nil).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge holds one float64 value, last write wins. A nil Gauge is a
// valid no-op handle.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// Value returns the stored value (0 for nil).
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// histCap bounds the retained-sample reservoir of a Histogram.
const histCap = 1024

// Histogram accumulates a scalar distribution: exact count/sum/min/max
// plus a bounded, deterministically decimated sample reservoir used for
// percentile estimates. When the reservoir fills it is thinned by
// keeping every other retained sample and doubling the keep stride, so
// retention stays uniform over the observation stream without
// randomness (determinism matters: telemetry output is byte-compared in
// regression tests).
type Histogram struct {
	mu      sync.Mutex
	count   uint64
	sum     float64
	min     float64
	max     float64
	samples []float64
	stride  uint64 // keep one sample per stride observations
	seen    uint64 // observations since the last kept sample
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	if h.count == 0 {
		h.min, h.max = v, v
		h.stride = 1
	} else {
		if v < h.min {
			h.min = v
		}
		if v > h.max {
			h.max = v
		}
	}
	h.count++
	h.sum += v
	h.seen++
	if h.seen >= h.stride {
		h.seen = 0
		h.samples = append(h.samples, v)
		h.thin()
	}
	h.mu.Unlock()
}

// thin halves the reservoir, keeping every other sample, and doubles
// the stride until the reservoir is under histCap. Callers hold mu.
func (h *Histogram) thin() {
	for len(h.samples) >= histCap {
		keep := h.samples[:0]
		for i := 0; i < len(h.samples); i += 2 {
			keep = append(keep, h.samples[i])
		}
		h.samples = keep
		h.stride *= 2
	}
}

// HistogramSnapshot is a point-in-time view of a Histogram.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	Sum   float64 `json:"sum"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	// Summary holds distribution statistics (including P99) over the
	// retained sample reservoir.
	Summary metrics.Summary `json:"summary"`
}

// Snapshot returns the current state (zero value for nil).
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return HistogramSnapshot{
		Count:   h.count,
		Sum:     h.sum,
		Min:     h.min,
		Max:     h.max,
		Summary: metrics.Summarize(h.samples),
	}
}

// Registry names and owns metric instruments. Handles are created on
// first use and live for the registry's lifetime; reads snapshot the
// registry without stopping writers. A nil Registry hands out nil
// handles, so a disabled telemetry path costs one nil check per
// operation.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram
}

// NewRegistry builds an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*Counter),
		gauges:     make(map[string]*Gauge),
		histograms: make(map[string]*Histogram),
	}
}

// Counter returns the named counter, creating it on first use (nil for
// a nil registry).
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use (nil for a
// nil registry).
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it on first use (nil
// for a nil registry).
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		h = &Histogram{}
		r.histograms[name] = h
	}
	return h
}

// RegistrySnapshot is a point-in-time view of every instrument, with
// deterministic (sorted) iteration order when marshalled.
type RegistrySnapshot struct {
	Counters   map[string]uint64            `json:"counters"`
	Gauges     map[string]float64           `json:"gauges"`
	Histograms map[string]HistogramSnapshot `json:"histograms"`
}

// Snapshot captures all instruments (empty snapshot for nil).
func (r *Registry) Snapshot() RegistrySnapshot {
	s := RegistrySnapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]float64{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gauges {
		s.Gauges[name] = g.Value()
	}
	for name, h := range r.histograms {
		s.Histograms[name] = h.Snapshot()
	}
	return s
}

// CounterNames returns the registered counter names, sorted.
func (r *Registry) CounterNames() []string {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.counters))
	for n := range r.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
