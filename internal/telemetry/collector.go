package telemetry

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"resemble/internal/flatmap"
	"resemble/internal/metrics"
)

// Config parameterizes a Collector.
type Config struct {
	// Dir is the output directory; when non-empty the collector creates
	// it and writes windows.jsonl, trace.jsonl (when sampling is on),
	// metrics.json and manifest.json there.
	Dir string
	// WindowSize is the snapshot window in LLC accesses (default 1000,
	// the paper's metric granularity).
	WindowSize int
	// TraceSample enables event tracing at 1-in-N sampling; 0 disables
	// the sampled trace (full-rate sinks still work).
	TraceSample int
	// TraceOut overrides the sampled-trace path (default
	// Dir/trace.jsonl). A .csv suffix selects the CSV sink.
	TraceOut string
	// KeepWindows retains every window snapshot in memory (tests and
	// in-process consumers; file sinks are unaffected).
	KeepWindows bool
	// SpanCap bounds the retained span records to the newest SpanCap
	// (default 16384); negative disables the cap.
	SpanCap int
	// ChromeOut, when non-empty, writes the retained spans as Chrome
	// trace-event JSON to this path on Close.
	ChromeOut string
	// ExplainSample enables 1-in-N controller decision explainability
	// records; 0 disables (the hot path stays a single branch).
	ExplainSample int
	// ExplainOut, when non-empty, streams decision records as JSONL to
	// this path (default Dir/decisions.jsonl when Dir is set and
	// ExplainSample is on).
	ExplainOut string
	// DecisionCap bounds the retained decision records to the newest
	// DecisionCap (default 4096); negative disables the cap.
	DecisionCap int
	// AllocAttribution samples the process allocation counters around
	// every span and window boundary and aggregates the deltas per phase
	// (see alloc.go). Off by default: the sampled values are
	// process-global and nondeterministic, so byte-compared telemetry
	// output must leave it off.
	AllocAttribution bool
}

func (c Config) withDefaults() Config {
	if c.WindowSize <= 0 {
		c.WindowSize = 1000
	}
	if c.SpanCap == 0 {
		c.SpanCap = 16384
	}
	if c.DecisionCap == 0 {
		c.DecisionCap = 4096
	}
	return c
}

// Collector is the run-scoped telemetry facade: it owns the metric
// registry, the event tracer, the window sinks and the manifest. A nil
// *Collector is a valid disabled collector — every method no-ops and
// Registry() returns nil, which in turn hands out nil instrument
// handles.
type Collector struct {
	cfg      Config
	reg      *Registry
	tracer   *Tracer
	winSinks []WindowSink
	windows  []WindowSnapshot
	start    time.Time
	manifest Manifest
	closed   bool
	// overlay, set by the daemon's operator surface, writes the
	// daemon's own counters and gauges over the metrics.json snapshot
	// as it does over /metrics.
	overlay func(*RegistrySnapshot)

	runWorkload string
	runSource   string
	windowIdx   int
	prev        ControllerStats
	hasPrev     bool

	// capture retains the full sampled-event selection of a child
	// collector (see Child) so Merge can replay it into the parent.
	capture *MemorySink

	// allocOn enables per-phase allocation attribution; winAlloc is the
	// counter sample at the last window boundary (run-thread only).
	allocOn  bool
	winAlloc allocTick

	// obsMu guards the observability state below — span ordinals,
	// retained spans/decisions and phase-alloc aggregates — which,
	// unlike the rest of the collector, is read concurrently (HTTP
	// scrape/explain handlers) while runs are writing.
	obsMu       sync.Mutex
	proc        string // process label stamped onto retained spans (SetProc)
	spans       flatmap.Queue[SpanRecord]
	spanDrops   uint64
	rootSeq     map[string]uint64
	childSeq    map[SpanID]uint64
	runSpan     *Span
	phaseAllocs map[string]*PhaseAlloc

	explainN  uint64
	decisions flatmap.Queue[Decision]
	decFile   *os.File
	decBuf    *bufio.Writer
	decEnc    *json.Encoder
}

// New builds a collector. When cfg.Dir is set the directory is created
// and the default file sinks are opened immediately, so configuration
// errors surface before the simulation starts.
func New(cfg Config) (*Collector, error) {
	cfg = cfg.withDefaults()
	c := &Collector{
		cfg:         cfg,
		reg:         NewRegistry(),
		tracer:      NewTracer(cfg.TraceSample),
		start:       time.Now(),
		rootSeq:     map[string]uint64{},
		childSeq:    map[SpanID]uint64{},
		allocOn:     cfg.AllocAttribution,
		phaseAllocs: map[string]*PhaseAlloc{},
	}
	c.manifest = newManifest(c.start)
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		f, err := os.Create(filepath.Join(cfg.Dir, "windows.jsonl"))
		if err != nil {
			return nil, fmt.Errorf("telemetry: %w", err)
		}
		c.winSinks = append(c.winSinks, NewJSONLWindowSink(f))
	}
	if cfg.TraceSample > 0 {
		path := cfg.TraceOut
		if path == "" && cfg.Dir != "" {
			path = filepath.Join(cfg.Dir, "trace.jsonl")
		}
		if path != "" {
			f, err := os.Create(path)
			if err != nil {
				return nil, fmt.Errorf("telemetry: %w", err)
			}
			if filepath.Ext(path) == ".csv" {
				c.tracer.AddSink(NewCSVSink(f), false)
			} else {
				c.tracer.AddSink(NewJSONLSink(f), false)
			}
		}
	}
	if cfg.ExplainSample > 0 {
		path := cfg.ExplainOut
		if path == "" && cfg.Dir != "" {
			path = filepath.Join(cfg.Dir, "decisions.jsonl")
		}
		if path != "" {
			if err := c.openExplainOut(path); err != nil {
				return nil, fmt.Errorf("telemetry: %w", err)
			}
		}
	}
	return c, nil
}

// Registry returns the metric registry (nil for a nil collector).
func (c *Collector) Registry() *Registry {
	if c == nil {
		return nil
	}
	return c.reg
}

// Manifest returns the mutable run manifest (nil for a nil collector).
func (c *Collector) Manifest() *Manifest {
	if c == nil {
		return nil
	}
	return &c.manifest
}

// Tracer returns the event tracer (nil for a nil collector).
func (c *Collector) Tracer() *Tracer {
	if c == nil {
		return nil
	}
	return c.tracer
}

// Trace records one event through the tracer.
func (c *Collector) Trace(e Event) {
	if c != nil {
		c.tracer.Trace(e)
	}
}

// AddEventSink registers an event sink (fullRate bypasses sampling).
func (c *Collector) AddEventSink(s Sink, fullRate bool) {
	if c != nil {
		c.tracer.AddSink(s, fullRate)
	}
}

// AddWindowSink registers a window-snapshot sink.
func (c *Collector) AddWindowSink(s WindowSink) {
	if c != nil && s != nil {
		c.winSinks = append(c.winSinks, s)
	}
}

// BeginRun labels subsequent windows with a (workload, source) pair,
// resets the window index and the sampled-trace phase, and appends the
// pair to the manifest. Restarting the sampling phase per run makes
// the 1-in-N selection a function of the run alone, so a run's sampled
// trace is identical whether the run executed serially on a shared
// collector or on an isolated child collector merged in afterwards
// (checkpoint restore still reinstates the exact mid-run phase).
func (c *Collector) BeginRun(workload, source string) {
	if c == nil {
		return
	}
	c.runWorkload, c.runSource = workload, source
	c.windowIdx = 0
	c.hasPrev = false
	c.prev = ControllerStats{}
	if c.allocOn {
		c.winAlloc = readAllocTick()
	}
	c.tracer.beginRun()
	c.obsMu.Lock()
	c.explainN = 0 // decision sampling restarts per run, like the tracer phase
	c.obsMu.Unlock()
	c.manifest.Runs = append(c.manifest.Runs, RunInfo{Workload: workload, Source: source})
}

// EmitWindow assembles one window snapshot from the simulator's window
// counters and (when probe is non-nil) the controller's learning
// state, and writes it to every window sink.
func (c *Collector) EmitWindow(w SimWindow, probe ControllerProbe) {
	if c == nil {
		return
	}
	wsp := c.RunSpanChild("window.commit")
	defer wsp.End()
	snap := WindowSnapshot{
		Workload:     c.runWorkload,
		Source:       c.runSource,
		Window:       c.windowIdx,
		Accesses:     w.Accesses,
		Instructions: w.Instructions,
		Cycles:       w.Cycles,
		Misses:       w.Misses,
		Issued:       w.Issued,
		Useful:       w.Useful,
		LateHits:     w.LateHits,
		Dropped:      w.Dropped,
	}
	c.windowIdx++
	if w.Cycles > 0 {
		snap.IPC = float64(w.Instructions) / w.Cycles
	}
	if w.Instructions > 0 {
		snap.MPKI = float64(w.Misses) * 1000 / float64(w.Instructions)
	}
	if w.Accesses > 0 {
		snap.HitRate = float64(w.Hits) / float64(w.Accesses)
	}
	if w.Issued > 0 {
		snap.Accuracy = float64(w.Useful) / float64(w.Issued)
		if snap.Accuracy > 1 {
			snap.Accuracy = 1
		}
	}
	if tot := w.Useful + w.Misses; tot > 0 {
		snap.Coverage = float64(w.Useful) / float64(tot)
	}

	if probe != nil {
		cur := probe.TelemetryStats()
		prev := c.prev
		if !c.hasPrev {
			prev = ControllerStats{} // first window diffs against zero
		}
		snap.Epsilon = cur.Epsilon
		snap.RewardSum = cur.RewardSum - prev.RewardSum
		snap.Q = metrics.Summarize(cur.QValues)

		var total uint64
		for i := range cur.ActionCounts {
			d := cur.ActionCounts[i]
			if i < len(prev.ActionCounts) {
				d -= prev.ActionCounts[i]
			}
			total += d
		}
		for i, name := range cur.ActionNames {
			arm := ArmStats{Name: name}
			if i < len(cur.ActionCounts) {
				d := cur.ActionCounts[i]
				if i < len(prev.ActionCounts) {
					d -= prev.ActionCounts[i]
				}
				if total > 0 {
					arm.Share = float64(d) / float64(total)
				}
			}
			arm.Issued = delta(cur.ArmIssued, prev.ArmIssued, i)
			arm.Useful = delta(cur.ArmUseful, prev.ArmUseful, i)
			arm.Useless = delta(cur.ArmUseless, prev.ArmUseless, i)
			snap.Arms = append(snap.Arms, arm)
		}
		c.prev = snapshotCumulative(cur)
		c.hasPrev = true
	}

	if c.allocOn {
		now := readAllocTick()
		snap.AllocBytes = now.bytes - c.winAlloc.bytes
		snap.AllocObjects = now.objects - c.winAlloc.objects
		c.winAlloc = now
	}

	if c.cfg.KeepWindows {
		c.windows = append(c.windows, snap)
	}
	for _, s := range c.winSinks {
		_ = s.WriteWindow(snap)
	}
}

// delta returns cur[i]-prev[i] with missing entries reading as zero.
func delta(cur, prev []uint64, i int) uint64 {
	var v uint64
	if i < len(cur) {
		v = cur[i]
	}
	if i < len(prev) {
		v -= prev[i]
	}
	return v
}

// snapshotCumulative copies the cumulative fields of s for diffing
// against the next window (slices are copied: controllers reuse their
// backing arrays).
func snapshotCumulative(s ControllerStats) ControllerStats {
	return ControllerStats{
		RewardSum:    s.RewardSum,
		ActionCounts: append([]uint64(nil), s.ActionCounts...),
		ArmIssued:    append([]uint64(nil), s.ArmIssued...),
		ArmUseful:    append([]uint64(nil), s.ArmUseful...),
		ArmUseless:   append([]uint64(nil), s.ArmUseless...),
	}
}

// WindowSize returns the configured snapshot window (0 for nil, which
// disables window emission in the simulator).
func (c *Collector) WindowSize() int {
	if c == nil {
		return 0
	}
	return c.cfg.WindowSize
}

// Windows returns the retained snapshots (KeepWindows must be set).
func (c *Collector) Windows() []WindowSnapshot {
	if c == nil {
		return nil
	}
	return c.windows
}

// Close finalizes the manifest (wall time, peak alloc), dumps the
// metric registry, and flushes and closes every sink. It is safe to
// call on a nil collector and at most once otherwise.
func (c *Collector) Close() error {
	if c == nil || c.closed {
		return nil
	}
	c.closed = true
	var first error
	if err := c.tracer.Close(); err != nil {
		first = err
	}
	for _, s := range c.winSinks {
		if err := s.Close(); err != nil && first == nil {
			first = err
		}
	}
	if err := c.closeExplainOut(); err != nil && first == nil {
		first = err
	}
	spans := c.Spans()
	if c.cfg.Dir != "" && len(spans) > 0 {
		if err := writeSpansJSONL(filepath.Join(c.cfg.Dir, "spans.jsonl"), spans); err != nil && first == nil {
			first = err
		}
	}
	if c.cfg.ChromeOut != "" {
		if err := WriteChromeTraceFile(c.cfg.ChromeOut, spans); err != nil && first == nil {
			first = err
		}
	}
	if c.cfg.Dir != "" {
		snap := c.reg.Snapshot()
		if c.overlay != nil {
			c.overlay(&snap)
		}
		if err := writeJSON(filepath.Join(c.cfg.Dir, "metrics.json"), snap); err != nil && first == nil {
			first = err
		}
		if pas := c.PhaseAllocs(); len(pas) > 0 {
			if err := writeJSON(filepath.Join(c.cfg.Dir, "alloc_phases.json"), pas); err != nil && first == nil {
				first = err
			}
		}
		c.manifest.finish(c.start)
		if err := writeJSON(filepath.Join(c.cfg.Dir, "manifest.json"), c.manifest); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// writeSpansJSONL writes one span record per line.
func writeSpansJSONL(path string, spans []SpanRecord) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeJSON atomically-ish writes v as indented JSON to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
