package telemetry

import (
	"sync"
	"time"
)

// Metrics history: a fixed-size ring of periodic registry snapshots,
// reduced to flat counter/gauge maps (histograms fold to a "<name>.p99"
// gauge). Both daemons run a sampler over their registry and expose
// the ring as /metrics/history, and incident bundles embed it so every
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

// History is the bounded sample ring.
type History struct {
	mu   sync.Mutex
	buf  []HistorySample
	head int // index of the oldest sample once the ring is full
	n    int
}

// NewHistory builds a ring holding up to capacity samples
// (DefaultHistorySamples when capacity <= 0).
func NewHistory(capacity int) *History {
	if capacity <= 0 {
		capacity = DefaultHistorySamples
	}
	return &History{buf: make([]HistorySample, capacity)}
}

// Record reduces snap into one sample at now, evicting the oldest
// sample when the ring is full. Nil-safe.
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
	if h.n < len(h.buf) {
		h.buf[(h.head+h.n)%len(h.buf)] = s
		h.n++
	} else {
		h.buf[h.head] = s
		h.head = (h.head + 1) % len(h.buf)
	}
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
	if h.n == 0 {
		return nil
	}
	out := make([]HistorySample, h.n)
	for i := 0; i < h.n; i++ {
		out[i] = h.buf[(h.head+i)%len(h.buf)]
	}
	return out
}

// Cap returns the ring capacity (0 for nil).
func (h *History) Cap() int {
	if h == nil {
		return 0
	}
	return len(h.buf)
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
	return h.n
}

// SpanMS returns the wall-clock time covered by the retained samples
// in milliseconds (0 with fewer than two samples).
func (h *History) SpanMS() int64 {
	if h == nil {
		return 0
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.n < 2 {
		return 0
	}
	newest := h.buf[(h.head+h.n-1)%len(h.buf)].TMS
	return newest - h.buf[h.head].TMS
}
