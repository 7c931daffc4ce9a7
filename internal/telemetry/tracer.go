package telemetry

// Tracer fans traced events out to registered sinks. Sampling is
// deterministic 1-in-N by arrival order (not random), so traces of
// identical runs are byte-identical — a property the determinism
// regression test relies on. Sinks registered full-rate (the -pref
// dump, reward bookkeeping) bypass sampling; sampled sinks see every
// N-th event.
type Tracer struct {
	sample  uint64 // 1-in-N; 0 disables the sampled path entirely
	n       uint64 // events seen
	sampled []Sink
	full    []Sink
}

// NewTracer builds a tracer with the given 1-in-N sampling rate.
// sample <= 0 disables the sampled path (full-rate sinks still receive
// everything).
func NewTracer(sample int) *Tracer {
	t := &Tracer{}
	if sample > 0 {
		t.sample = uint64(sample)
	}
	return t
}

// AddSink registers a sink. Full-rate sinks receive every event;
// sampled sinks receive the 1-in-N selection.
func (t *Tracer) AddSink(s Sink, fullRate bool) {
	if t == nil || s == nil {
		return
	}
	if fullRate {
		t.full = append(t.full, s)
	} else {
		t.sampled = append(t.sampled, s)
	}
}

// Trace records one event. Errors from sinks are dropped: tracing must
// never abort a simulation (the final Close reports flush errors).
func (t *Tracer) Trace(e Event) {
	if t == nil {
		return
	}
	for _, s := range t.full {
		_ = s.WriteEvent(e)
	}
	if t.sample == 0 {
		return
	}
	t.n++
	if t.n%t.sample != 0 {
		return
	}
	t.replay(e)
}

// beginRun restarts the deterministic sampling phase, making the
// 1-in-N selection self-contained per run (see Collector.BeginRun).
func (t *Tracer) beginRun() {
	if t != nil {
		t.n = 0
	}
}

// replay feeds one already-sampled event to the sampled sinks without
// re-sampling — also used when merging a child collector's retained
// selection into a parent.
func (t *Tracer) replay(e Event) {
	if t == nil {
		return
	}
	for _, s := range t.sampled {
		_ = s.WriteEvent(e)
	}
}

// Seen returns the number of events offered to the sampled path.
func (t *Tracer) Seen() uint64 {
	if t == nil {
		return 0
	}
	return t.n
}

// Close closes every sink, returning the first error.
func (t *Tracer) Close() error {
	if t == nil {
		return nil
	}
	var first error
	for _, s := range append(append([]Sink(nil), t.full...), t.sampled...) {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	t.full, t.sampled = nil, nil
	return first
}
