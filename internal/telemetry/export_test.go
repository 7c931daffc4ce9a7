package telemetry

import (
	"bytes"
	"encoding/gob"
)

// RaceEnabled exports raceEnabled to the external tests.
const RaceEnabled = raceEnabled

// AttributeSpan runs the allocation attribution a span pays on a
// collector with it enabled: the counter sample when the span opens,
// the sample when it ends, and the phase-table update.
func AttributeSpan(c *Collector, name string) {
	s := Span{c: c, name: name}
	s.beginAlloc(c)
	var rec SpanRecord
	s.endAlloc(&rec)
}

// parentState is the collector snapshot format from before instrument
// values became name-sorted lists: Go maps, plus the tracer's
// sampled-event ring, which LoadState now skips.
type parentState struct {
	RunWorkload string
	RunSource   string
	WindowIdx   int
	Prev        ControllerStats
	HasPrev     bool

	Counters   map[string]uint64
	Gauges     map[string]float64
	Histograms map[string]histogramState

	TracerN  uint64
	RingCap  int
	Ring     []Event
	RingNext int
	RingWrap bool

	ExplainN uint64

	Windows []WindowSnapshot
}

// ParentFormatState re-encodes a current-format collector snapshot in
// the parent format, with a wrapped four-event ring.
func ParentFormatState(cur []byte) ([]byte, error) {
	var st collectorState
	if err := gob.NewDecoder(bytes.NewReader(cur)).Decode(&st); err != nil {
		return nil, err
	}
	old := parentState{
		RunWorkload: st.RunWorkload,
		RunSource:   st.RunSource,
		WindowIdx:   st.WindowIdx,
		Prev:        st.Prev,
		HasPrev:     st.HasPrev,
		Counters:    map[string]uint64{},
		Gauges:      map[string]float64{},
		Histograms:  map[string]histogramState{},
		TracerN:     st.TracerN,
		RingCap:     4,
		Ring:        []Event{{Seq: 5}, {Seq: 6}, {Seq: 3}, {Seq: 4}},
		RingNext:    2,
		RingWrap:    true,
		ExplainN:    st.ExplainN,
		Windows:     st.Windows,
	}
	for _, v := range st.CounterList {
		old.Counters[v.Name] = v.Value
	}
	for _, v := range st.GaugeList {
		old.Gauges[v.Name] = v.Value
	}
	for _, v := range st.HistogramList {
		old.Histograms[v.Name] = v.Value
	}
	var buf bytes.Buffer
	err := gob.NewEncoder(&buf).Encode(old)
	return buf.Bytes(), err
}
