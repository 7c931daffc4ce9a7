package telemetry

import (
	"sync"
	"time"

	"resemble/internal/flatmap"
)

// Metrics history: a bounded buffer of periodic registry snapshots,
// reduced to flat counter/gauge maps (histograms fold to a "<name>.p99"
// gauge). Both daemons run a sampler over their registry and expose
// the buffer as /metrics/history, and incident bundles embed it so every
// incident carries the minute of metrics that preceded it. A nil
// *History is a valid disabled sampler: Record and Samples no-op.

// DefaultHistorySamples at DefaultHistoryEvery retains two minutes —
// comfortably more than the 60 s an incident bundle must explain.
const (
	DefaultHistorySamples = 120
	DefaultHistoryEvery   = time.Second
)

// HistorySample is one reduced registry snapshot.
type HistorySample struct {
	TMS      int64              `json:"t_ms"` // wall clock, Unix milliseconds
	Counters map[string]uint64  `json:"counters,omitempty"`
	Gauges   map[string]float64 `json:"gauges,omitempty"`
}

// History is the bounded sample buffer: it keeps the newest cap
// samples.
type History struct {
	mu  sync.Mutex
	buf flatmap.Queue[HistorySample]
	cap int
}

// NewHistory builds a buffer holding up to capacity samples
// (DefaultHistorySamples when capacity <= 0).
func NewHistory(capacity int) *History {
	if capacity <= 0 {
		capacity = DefaultHistorySamples
	}
	return &History{cap: capacity}
}

// Record reduces snap into one sample at now, evicting the oldest
// sample when the buffer is full. Nil-safe.
func (h *History) Record(now time.Time, snap RegistrySnapshot) {
	if h != nil {
		h.record(now, snap)
	}
}

func (h *History) record(now time.Time, snap RegistrySnapshot) {
	s := HistorySample{TMS: now.UnixMilli()}
	if len(snap.Counters) > 0 {
		s.Counters = make(map[string]uint64, len(snap.Counters))
		for k, v := range snap.Counters {
			s.Counters[k] = v
		}
	}
	if len(snap.Gauges)+len(snap.Histograms) > 0 {
		s.Gauges = make(map[string]float64, len(snap.Gauges)+len(snap.Histograms))
		for k, v := range snap.Gauges {
			s.Gauges[k] = v
		}
		for k, v := range snap.Histograms {
			s.Gauges[k+".p99"] = v.Summary.P99
		}
	}
	h.mu.Lock()
	h.buf.PushBounded(s, h.cap)
	h.mu.Unlock()
}

// Samples returns the retained samples oldest-first (nil for a nil or
// empty history).
func (h *History) Samples() []HistorySample {
	if h == nil {
		return nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return append([]HistorySample(nil), h.buf.Live()...)
}

// Cap returns the buffer capacity (0 for nil).
func (h *History) Cap() int {
	if h == nil {
		return 0
	}
	return h.cap
}

// Len returns the number of retained samples (0 for nil).
func (h *History) Len() int {
	if h == nil {
		return 0
	}
	return h.size()
}

func (h *History) size() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.buf.Len()
}

// SpanMS returns the wall-clock time covered by the retained samples
// in milliseconds (0 with fewer than two samples).
func (h *History) SpanMS() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	live := h.buf.Live()
	if len(live) < 2 {
		return 0
	}
	return live[len(live)-1].TMS - live[0].TMS
}
