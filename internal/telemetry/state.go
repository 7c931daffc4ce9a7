package telemetry

import (
	"encoding/gob"
	"errors"
	"fmt"
	"io"
	"sort"
)

// Checkpointing (checkpoint.Stater) for the collector. The snapshot
// carries the registry's instrument values, the tracer position, the
// collector's window-diff state and — for KeepWindows collectors — the
// retained window snapshots themselves, so a run resumed on a
// different machine emits the exact window/metric continuation an
// uninterrupted run would have AND still holds the full window stream
// for merge/response shipping. Instrument values are restored onto the
// existing instruments (matched by name), so handles already held by
// attached components stay live. Instruments are saved as name-sorted
// lists: the artifact store names checkpoints by hash, so the bytes
// must not follow map iteration order.

type histogramState struct {
	Count   uint64
	Sum     float64
	Min     float64
	Max     float64
	Samples []float64
	Stride  uint64
	Seen    uint64
}

// named is one instrument value in a snapshot.
type named[T any] struct {
	Name  string
	Value T
}

type collectorState struct {
	RunWorkload string
	RunSource   string
	WindowIdx   int
	Prev        ControllerStats
	HasPrev     bool

	CounterList   []named[uint64]
	GaugeList     []named[float64]
	HistogramList []named[histogramState]

	// Counters, Gauges and Histograms hold the instrument values of
	// snapshots written before the sorted lists; LoadState still reads
	// them, SaveState leaves them empty. (Those snapshots also carried
	// the since-removed tracer ring, which gob skips.)
	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]histogramState

	TracerN  uint64
	ExplainN uint64

	// Windows carries the retained snapshots of a KeepWindows
	// collector, so a run resumed on another machine ships the full
	// window stream, not just the post-resume suffix.
	Windows []WindowSnapshot
}

// sortedNames returns m's keys in ascending order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// SaveState implements checkpoint.Stater.
func (c *Collector) SaveState(w io.Writer) error {
	if c == nil {
		return errors.New("telemetry: cannot checkpoint a nil collector")
	}
	st := collectorState{
		RunWorkload: c.runWorkload,
		RunSource:   c.runSource,
		WindowIdx:   c.windowIdx,
		Prev:        c.prev,
		HasPrev:     c.hasPrev,
		TracerN:     c.tracer.Seen(),
	}
	c.reg.mu.Lock()
	for _, name := range sortedNames(c.reg.counters) {
		st.CounterList = append(st.CounterList, named[uint64]{name, c.reg.counters[name].Value()})
	}
	for _, name := range sortedNames(c.reg.gauges) {
		st.GaugeList = append(st.GaugeList, named[float64]{name, c.reg.gauges[name].Value()})
	}
	for _, name := range sortedNames(c.reg.histograms) {
		h := c.reg.histograms[name]
		h.mu.Lock()
		st.HistogramList = append(st.HistogramList, named[histogramState]{name, histogramState{
			Count: h.count, Sum: h.sum, Min: h.min, Max: h.max,
			Samples: append([]float64(nil), h.samples...),
			Stride:  h.stride, Seen: h.seen,
		}})
		h.mu.Unlock()
	}
	c.reg.mu.Unlock()
	c.obsMu.Lock()
	st.ExplainN = c.explainN
	c.obsMu.Unlock()
	if c.cfg.KeepWindows {
		st.Windows = append([]WindowSnapshot(nil), c.windows...)
	}
	return gob.NewEncoder(w).Encode(st)
}

// LoadState implements checkpoint.Stater. Values land on the existing
// named instruments (creating any the current process has not touched
// yet).
func (c *Collector) LoadState(r io.Reader) error {
	if c == nil {
		return errors.New("telemetry: cannot restore into a nil collector")
	}
	var st collectorState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("telemetry state: %w", err)
	}
	c.runWorkload = st.RunWorkload
	c.runSource = st.RunSource
	c.windowIdx = st.WindowIdx
	c.prev = st.Prev
	c.hasPrev = st.HasPrev
	for name, v := range st.Counters {
		st.CounterList = append(st.CounterList, named[uint64]{name, v})
	}
	for name, v := range st.Gauges {
		st.GaugeList = append(st.GaugeList, named[float64]{name, v})
	}
	for name, hs := range st.Histograms {
		st.HistogramList = append(st.HistogramList, named[histogramState]{name, hs})
	}
	for _, v := range st.CounterList {
		c.reg.Counter(v.Name).v.Store(v.Value)
	}
	for _, v := range st.GaugeList {
		c.reg.Gauge(v.Name).Set(v.Value)
	}
	for _, v := range st.HistogramList {
		c.reg.Histogram(v.Name).restore(v.Value)
	}
	if t := c.tracer; t != nil {
		t.n = st.TracerN
	}
	c.obsMu.Lock()
	c.explainN = st.ExplainN
	c.obsMu.Unlock()
	if c.cfg.KeepWindows && len(st.Windows) > 0 {
		c.windows = append(c.windows[:0], st.Windows...)
	}
	return nil
}

// restore installs a saved distribution. A reservoir saved over the
// cap is thinned back under it, and an observed histogram keeps a
// stride of at least one, so Observe resumes its normal decimation.
func (h *Histogram) restore(hs histogramState) {
	h.mu.Lock()
	h.count, h.sum, h.min, h.max = hs.Count, hs.Sum, hs.Min, hs.Max
	h.samples = append(h.samples[:0], hs.Samples...)
	h.stride, h.seen = hs.Stride, hs.Seen
	if h.count > 0 && h.stride == 0 {
		h.stride = 1
	}
	h.thin()
	h.mu.Unlock()
}
