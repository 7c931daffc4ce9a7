package telemetry

// Parallel-run support: a parent collector hands each concurrent
// simulation an isolated Child collector, and folds the finished
// children back in with Merge in deterministic task order. Because
// window snapshots are fully self-contained (they carry their own
// workload/source/window labels) and the sampled-trace phase restarts
// at every BeginRun, the parent's window and trace streams after
// merging equal the streams a serial execution of the same runs in the
// same order would have produced. Registry instruments merge
// arithmetically: counters add, gauges keep the last merged run's
// value (matching serial last-write-wins), histograms fold their exact
// count/sum/min/max and combine sample reservoirs (reservoir contents
// — and hence percentile estimates — are deterministic for a fixed
// merge order, but not bit-identical to single-stream accumulation).

// Child returns an isolated in-memory collector for one concurrent
// run. It inherits the parent's window size and sampling rates but
// opens no files and writes to no external sinks; every
// window snapshot and every sampled event is retained so Merge can
// replay them into the parent. Child of a nil collector is nil (the
// disabled path stays disabled).
func (c *Collector) Child() *Collector {
	if c == nil {
		return nil
	}
	ch, err := New(Config{
		WindowSize:  c.cfg.WindowSize,
		TraceSample: c.cfg.TraceSample,
		KeepWindows: true,
		// Children never drop observability records: the parent applies
		// its own caps when the child merges back in.
		SpanCap:          -1,
		ExplainSample:    c.cfg.ExplainSample,
		DecisionCap:      -1,
		AllocAttribution: c.cfg.AllocAttribution,
	})
	if err != nil {
		// New without a Dir performs no I/O and cannot fail; keep the
		// signature sink-free for callers.
		panic(err)
	}
	if c.cfg.TraceSample > 0 {
		ch.capture = &MemorySink{}
		ch.tracer.AddSink(ch.capture, false)
	}
	// Root-span ordinals continue from the parent's state so a pool
	// section that reuses a track name (task:0 in every section) derives
	// the same span IDs a serial execution on the parent would. All
	// children of a section are created before any merges back, so every
	// child sees the same snapshot.
	c.obsMu.Lock()
	for k, v := range c.rootSeq {
		ch.rootSeq[k] = v
	}
	c.obsMu.Unlock()
	return ch
}

// Merge folds a finished child collector into c: retained windows are
// written through the parent's sinks (and kept when KeepWindows is
// set), manifest run entries are appended, registry instruments are
// combined, and the child's sampled events are replayed into the
// parent's trace sinks without re-sampling. Call it from one
// goroutine at a time, in the order the runs would have executed
// serially; the child must be done (no concurrent writers).
func (c *Collector) Merge(ch *Collector) {
	if c == nil || ch == nil {
		return
	}
	for _, w := range ch.windows {
		if c.cfg.KeepWindows {
			c.windows = append(c.windows, w)
		}
		for _, s := range c.winSinks {
			_ = s.WriteWindow(w)
		}
	}
	// The parent continues as if it had just executed the child's last
	// run: labels, window index and the controller diff baseline carry
	// over, so a subsequent serial EmitWindow on the parent stays
	// coherent.
	c.runWorkload, c.runSource = ch.runWorkload, ch.runSource
	c.windowIdx = ch.windowIdx
	c.prev, c.hasPrev = ch.prev, ch.hasPrev
	c.manifest.Runs = append(c.manifest.Runs, ch.manifest.Runs...)
	c.reg.merge(ch.reg)
	if ch.capture != nil {
		for _, e := range ch.capture.Events() {
			c.tracer.replay(e)
		}
	}
	if c.tracer != nil && ch.tracer != nil {
		c.tracer.n = ch.tracer.n
	}
	// Spans and decisions replay verbatim: identity is deterministic
	// (derived from parent/track/name/ordinal on the child), so merged
	// records are the ones a serial execution would have produced.
	ch.obsMu.Lock()
	spans := append([]SpanRecord(nil), ch.spans.Live()...)
	decisions := append([]Decision(nil), ch.decisions.Live()...)
	explainN := ch.explainN
	rootSeq := make(map[string]uint64, len(ch.rootSeq))
	for k, v := range ch.rootSeq {
		rootSeq[k] = v
	}
	ch.obsMu.Unlock()
	for _, s := range spans {
		c.addSpan(s)
	}
	// Phase-alloc aggregates fold additively; the merged phase names and
	// counts equal a serial execution's (the byte/object values are
	// process-global samples and carry whatever concurrency inflated).
	for _, pa := range ch.PhaseAllocs() {
		c.mergePhaseAlloc(pa)
	}
	c.obsMu.Lock()
	for k, v := range rootSeq {
		if v > c.rootSeq[k] {
			c.rootSeq[k] = v // adopt the child's track advance (see Child)
		}
	}
	for _, d := range decisions {
		c.keepDecision(d)
	}
	c.explainN = explainN
	c.obsMu.Unlock()
}

// ReplayWindow appends a fully-formed window snapshot to the
// collector as if it had just been emitted locally: retained under
// KeepWindows, written through the window sinks, and the run-label /
// window-index carry-over updated so a later Merge of this collector
// behaves exactly like a merge of the child that originally emitted
// the snapshot. The cluster front door uses it to rebuild a per-run
// child from windows shipped back across a process boundary in a
// backend's /v1/run response: replaying a run's windows in order into
// a fresh child and merging that child is byte-identical to merging
// the in-process child itself (the probe diff state cannot be
// reconstructed, but it only shapes windows emitted *after* the
// replayed ones, and a rebuilt child never emits).
func (c *Collector) ReplayWindow(w WindowSnapshot) {
	if c == nil {
		return
	}
	if c.cfg.KeepWindows {
		c.windows = append(c.windows, w)
	}
	for _, s := range c.winSinks {
		_ = s.WriteWindow(w)
	}
	c.runWorkload, c.runSource = w.Workload, w.Source
	c.windowIdx = w.Window + 1
}

// merge folds o's instruments into r (see Merge for the semantics).
func (r *Registry) merge(o *Registry) {
	if r == nil || o == nil {
		return
	}
	o.mu.Lock()
	counters := make(map[string]uint64, len(o.counters))
	for name, c := range o.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]float64, len(o.gauges))
	for name, g := range o.gauges {
		gauges[name] = g.Value()
	}
	hists := make(map[string]*Histogram, len(o.histograms))
	for name, h := range o.histograms {
		hists[name] = h
	}
	o.mu.Unlock()
	for name, v := range counters {
		r.Counter(name).Add(v)
	}
	for name, v := range gauges {
		r.Gauge(name).Set(v)
	}
	for name, h := range hists {
		r.Histogram(name).merge(h)
	}
}

// merge folds o's distribution into h: exact aggregates combine
// exactly; the reservoirs concatenate and re-thin to the cap.
func (h *Histogram) merge(o *Histogram) {
	if h == nil || o == nil || h == o {
		return
	}
	o.mu.Lock()
	count, sum, min, max := o.count, o.sum, o.min, o.max
	samples := append([]float64(nil), o.samples...)
	stride := o.stride
	o.mu.Unlock()
	if count == 0 {
		return
	}
	h.mu.Lock()
	if h.count == 0 {
		h.min, h.max = min, max
		h.stride = 1
	} else {
		if min < h.min {
			h.min = min
		}
		if max > h.max {
			h.max = max
		}
	}
	h.count += count
	h.sum += sum
	if stride > h.stride {
		h.stride = stride
	}
	h.samples = append(h.samples, samples...)
	h.thin()
	h.mu.Unlock()
}
