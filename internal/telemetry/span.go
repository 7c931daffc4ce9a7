package telemetry

import (
	"encoding/binary"
	"hash/fnv"
	"time"
)

// Span tracing: parent/child spans correlate one logical operation
// (an HTTP request, a simulation run) across layers — request →
// admission → worker run → sim phase → window commit → checkpoint.
//
// Span identity is deterministic: an ID is the FNV-1a hash of
// (parent ID, track, name, per-parent ordinal), not a random number
// and not a timestamp. Two executions that perform the same logical
// operations on the same tracks therefore produce the same span tree
// — which is how jobs=1 and jobs=N experiment traces stay comparable
// (the pool keys each task's track by its task index). Timestamps are
// recorded for humans (JSONL and Chrome trace export) but are never
// part of identity; tree-comparison tests look only at
// (ID, Parent, Track, Name).
//
// Timestamps are microseconds relative to one process-wide epoch, so
// spans recorded on isolated child collectors land on the same
// timeline as their parents after Merge.

// SpanID identifies one span. Zero means "no span" (a root's Parent).
type SpanID uint64

// SpanRecord is one finished span as retained, merged and exported.
// The Alloc* fields are populated only under Config.AllocAttribution
// (and stay omitted from JSON otherwise): they are the process-global
// heap-allocation delta over the span's lifetime.
type SpanRecord struct {
	ID     SpanID `json:"id"`
	Parent SpanID `json:"parent,omitempty"`
	Track  string `json:"track"`
	Name   string `json:"name"`
	// Proc labels the process that recorded the span; it is stamped at
	// retention time from the collector's SetProc label (or explicitly
	// on adopted foreign records) and maps to a pid in the Chrome
	// export. Empty on single-process traces, keeping their JSON
	// byte-identical to the pre-stitching format.
	Proc         string  `json:"proc,omitempty"`
	StartUS      float64 `json:"start_us"`
	DurUS        float64 `json:"dur_us"`
	AllocBytes   uint64  `json:"alloc_bytes,omitempty"`
	AllocObjects uint64  `json:"alloc_objects,omitempty"`
}

// SpanRef is a collector-independent reference to a live span, used to
// parent spans across collectors: the service starts the request span
// on its own collector and hands the ref to the worker, whose run
// spans record into an isolated child collector under that parent.
type SpanRef struct {
	ID    SpanID
	Track string
}

// processEpoch anchors every span timestamp so spans from different
// collectors in one process share a single timeline.
var processEpoch = time.Now()

// Span is an in-flight span handle. A nil *Span is a valid disabled
// handle: Child returns nil, End no-ops, Ref returns the zero ref.
type Span struct {
	c      *Collector
	id     SpanID
	parent SpanID
	track  string
	name   string
	start  time.Time
	done   bool
	rec    SpanRecord // finished record, retained by End for Record

	// alloc holds the allocation-counter sample taken when the span
	// opened; valid only when allocOn is set (see alloc.go).
	alloc   allocTick
	allocOn bool
}

// beginAlloc samples the allocation counters for a freshly opened span
// when the owning collector has attribution enabled.
func (s *Span) beginAlloc(c *Collector) *Span {
	if c.allocOn {
		s.allocOn = true
		s.alloc = readAllocTick()
	}
	return s
}

// endAlloc charges the allocations made since beginAlloc to the span's
// record and to its phase.
func (s *Span) endAlloc(rec *SpanRecord) {
	tick := readAllocTick()
	rec.AllocBytes = tick.bytes - s.alloc.bytes
	rec.AllocObjects = tick.objects - s.alloc.objects
	s.c.recordPhaseAlloc(s.name, rec.AllocBytes, rec.AllocObjects)
}

// spanID derives the deterministic identity of a span.
func spanID(parent SpanID, track, name string, ordinal uint64) SpanID {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(parent))
	h.Write(b[:])
	h.Write([]byte(track))
	h.Write([]byte{0})
	h.Write([]byte(name))
	h.Write([]byte{0})
	binary.LittleEndian.PutUint64(b[:], ordinal)
	h.Write(b[:])
	id := SpanID(h.Sum64())
	if id == 0 {
		id = 1 // keep zero reserved for "no parent"
	}
	return id
}

// StartSpan opens a root span on the given track. Tracks map to
// timeline rows in the Chrome export; the per-(track, name) ordinal
// makes repeated operations distinguishable while staying
// deterministic. Nil-safe.
func (c *Collector) StartSpan(track, name string) *Span {
	if c == nil {
		return nil
	}
	c.obsMu.Lock()
	ord := c.rootSeq[track+"\x00"+name]
	c.rootSeq[track+"\x00"+name] = ord + 1
	c.obsMu.Unlock()
	return (&Span{c: c, id: spanID(0, track, name, ord), track: track, name: name, start: time.Now()}).beginAlloc(c)
}

// StartSpanUnder opens a span parented under ref — possibly a span
// owned by another collector (see SpanRef). A zero ref falls back to a
// root span on the "detached" track so callers need not branch.
func (c *Collector) StartSpanUnder(ref SpanRef, name string) *Span {
	if c == nil {
		return nil
	}
	if ref.ID == 0 {
		return c.StartSpan("detached", name)
	}
	c.obsMu.Lock()
	ord := c.childSeq[ref.ID]
	c.childSeq[ref.ID] = ord + 1
	c.obsMu.Unlock()
	return (&Span{c: c, id: spanID(ref.ID, ref.Track, name, ord), parent: ref.ID, track: ref.Track, name: name, start: time.Now()}).beginAlloc(c)
}

// Child opens a sub-span on the same track and collector.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := s.c
	c.obsMu.Lock()
	ord := c.childSeq[s.id]
	c.childSeq[s.id] = ord + 1
	c.obsMu.Unlock()
	return (&Span{c: c, id: spanID(s.id, s.track, name, ord), parent: s.id, track: s.track, name: name, start: time.Now()}).beginAlloc(c)
}

// Ref returns a collector-independent reference to s for
// cross-collector parenting (zero ref for nil).
func (s *Span) Ref() SpanRef {
	if s == nil {
		return SpanRef{}
	}
	return SpanRef{ID: s.id, Track: s.track}
}

// End finishes the span and records it. Idempotent and nil-safe.
func (s *Span) End() {
	if s != nil && !s.done {
		s.end()
	}
}

func (s *Span) end() {
	s.done = true
	now := time.Now()
	rec := SpanRecord{
		ID:      s.id,
		Parent:  s.parent,
		Track:   s.track,
		Name:    s.name,
		StartUS: durUS(s.start.Sub(processEpoch)),
		DurUS:   durUS(now.Sub(s.start)),
	}
	if s.allocOn {
		s.endAlloc(&rec)
	}
	s.rec = rec
	s.c.addSpan(rec)
}

// Record returns the finished span record (without the retaining
// collector's Proc stamp, which only labels the local copy). The bool
// is false until End has run, and always for a nil span.
func (s *Span) Record() (SpanRecord, bool) {
	if s == nil || !s.done {
		return SpanRecord{}, false
	}
	return s.rec, true
}

// StartUS returns the span's start on the process timeline — the same
// value End records — so adopters can anchor shipped child spans to a
// still-open local span (0 for nil).
func (s *Span) StartUS() float64 {
	if s == nil {
		return 0
	}
	return durUS(s.start.Sub(processEpoch))
}

func durUS(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// addSpan retains one finished span, keeping the newest SpanCap
// (bounding a long-running service's memory). Records without an
// explicit process label inherit the collector's.
func (c *Collector) addSpan(r SpanRecord) {
	c.obsMu.Lock()
	if r.Proc == "" {
		r.Proc = c.proc
	}
	c.spanDrops += uint64(c.spans.PushBounded(r, c.cfg.SpanCap))
	c.obsMu.Unlock()
}

// Spans returns a copy of the retained span records in completion
// order (children before their parents, since parents end last).
func (c *Collector) Spans() []SpanRecord {
	if c == nil {
		return nil
	}
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
	return append([]SpanRecord(nil), c.spans.Live()...)
}

// SpanDrops reports how many spans the retention cap discarded.
func (c *Collector) SpanDrops() uint64 {
	if c == nil {
		return 0
	}
	c.obsMu.Lock()
	defer c.obsMu.Unlock()
	return c.spanDrops
}

// SetRunSpan installs the span representing the current simulation
// run; the collector's own emissions (window commits, checkpoint
// writes) hang off it via RunSpanChild. Pass nil to clear.
func (c *Collector) SetRunSpan(s *Span) {
	if c == nil {
		return
	}
	c.obsMu.Lock()
	c.runSpan = s
	c.obsMu.Unlock()
}

// RunSpanChild opens a child of the current run span (nil when no run
// span is installed, which disables the whole chain for free).
func (c *Collector) RunSpanChild(name string) *Span {
	if c == nil {
		return nil
	}
	return c.runSpanChild(name)
}

func (c *Collector) runSpanChild(name string) *Span {
	c.obsMu.Lock()
	rs := c.runSpan
	c.obsMu.Unlock()
	if rs == nil {
		return nil
	}
	return rs.Child(name)
}
