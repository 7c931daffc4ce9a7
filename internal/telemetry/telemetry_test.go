package telemetry

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestNilHandlesAreNoOps(t *testing.T) {
	// The disabled-telemetry contract: nil handles accept every
	// operation and read as zero.
	var c *Counter
	c.Inc()
	c.Add(10)
	if c.Value() != 0 {
		t.Error("nil counter value != 0")
	}
	var g *Gauge
	g.Set(3.5)
	if g.Value() != 0 {
		t.Error("nil gauge value != 0")
	}
	var h *Histogram
	h.Observe(1)
	if s := h.Snapshot(); s.Count != 0 {
		t.Error("nil histogram count != 0")
	}
	var r *Registry
	if r.Counter("x") != nil || r.Gauge("x") != nil || r.Histogram("x") != nil {
		t.Error("nil registry handed out non-nil handles")
	}
	r.Counter("x").Inc() // must not panic
	var tr *Tracer
	tr.Trace(Event{})
	if tr.Seen() != 0 || tr.Close() != nil {
		t.Error("nil tracer misbehaved")
	}
	var col *Collector
	col.Trace(Event{})
	col.EmitWindow(SimWindow{}, nil)
	col.BeginRun("w", "s")
	if col.Registry() != nil || col.WindowSize() != 0 || col.Close() != nil {
		t.Error("nil collector misbehaved")
	}
}

func TestCounterGauge(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a")
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Errorf("counter = %d, want 5", c.Value())
	}
	if r.Counter("a") != c {
		t.Error("repeated get returned a different counter")
	}
	g := r.Gauge("b")
	g.Set(1.5)
	g.Set(-2.5)
	if g.Value() != -2.5 {
		t.Errorf("gauge = %v, want -2.5 (last write wins)", g.Value())
	}
	snap := r.Snapshot()
	if snap.Counters["a"] != 5 || snap.Gauges["b"] != -2.5 {
		t.Errorf("snapshot = %+v", snap)
	}
	if names := r.CounterNames(); len(names) != 1 || names[0] != "a" {
		t.Errorf("CounterNames = %v", names)
	}
}

func TestHistogramExactStats(t *testing.T) {
	h := &Histogram{}
	for _, v := range []float64{3, 1, 4, 1, 5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 14 || s.Min != 1 || s.Max != 5 {
		t.Errorf("snapshot = %+v", s)
	}
	if s.Summary.N != 5 || s.Summary.P50 != 3 {
		t.Errorf("summary = %+v", s.Summary)
	}
}

func TestHistogramDecimationBoundedAndDeterministic(t *testing.T) {
	// Far more observations than histCap: the reservoir must stay
	// bounded while exact stats remain exact, and two identical
	// streams must produce identical snapshots.
	obs := func() HistogramSnapshot {
		h := &Histogram{}
		for i := 0; i < 10*histCap; i++ {
			h.Observe(float64(i % 97))
		}
		return h.Snapshot()
	}
	a, b := obs(), obs()
	if a.Count != 10*histCap {
		t.Errorf("count = %d", a.Count)
	}
	if a.Summary.N >= histCap {
		t.Errorf("reservoir not bounded: %d samples", a.Summary.N)
	}
	if a.Summary.N < histCap/4 {
		t.Errorf("reservoir too aggressive: %d samples", a.Summary.N)
	}
	if a != b {
		t.Errorf("identical streams diverged: %+v vs %+v", a, b)
	}
}

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(4)
	sampled := &MemorySink{}
	full := &MemorySink{}
	tr.AddSink(sampled, false)
	tr.AddSink(full, true)
	for i := 1; i <= 20; i++ {
		tr.Trace(Event{Seq: uint64(i)})
	}
	if got := len(full.Events()); got != 20 {
		t.Errorf("full-rate sink saw %d events, want 20", got)
	}
	ev := sampled.Events()
	if len(ev) != 5 {
		t.Fatalf("sampled sink saw %d events, want 5", len(ev))
	}
	// Deterministic 1-in-4 by arrival order: seq 4, 8, 12, 16, 20.
	for i, e := range ev {
		if want := uint64(4 * (i + 1)); e.Seq != want {
			t.Errorf("sampled[%d].Seq = %d, want %d", i, e.Seq, want)
		}
	}
	if tr.Seen() != 20 {
		t.Errorf("Seen = %d", tr.Seen())
	}
}

func TestTracerDisabledSamplePath(t *testing.T) {
	tr := NewTracer(0)
	sampled := &MemorySink{}
	full := &MemorySink{}
	tr.AddSink(sampled, false)
	tr.AddSink(full, true)
	tr.Trace(Event{Seq: 1})
	if len(full.Events()) != 1 {
		t.Error("full sink starved with sampling disabled")
	}
	if len(sampled.Events()) != 0 {
		t.Error("sampled path active despite sample=0")
	}
}

func TestJSONLSinkRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	s := NewJSONLSink(&buf)
	in := Event{Seq: 7, Cycle: 2.5, Kind: KindPrefetchIssue, Addr: 0xbeef}
	if err := s.WriteEvent(in); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("invalid JSONL %q: %v", buf.String(), err)
	}
	if m["kind"] != "prefetch_issue" {
		t.Errorf("kind marshalled as %v, want symbolic name", m["kind"])
	}
	if m["seq"] != float64(7) || m["addr"] != float64(0xbeef) {
		t.Errorf("round trip lost fields: %v", m)
	}
	if _, ok := m["reward"]; ok {
		t.Error("zero field not omitted")
	}
}

func TestCSVSinkHeader(t *testing.T) {
	var buf bytes.Buffer
	s := NewCSVSink(&buf)
	if err := s.WriteEvent(Event{Seq: 1, Kind: KindHit}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 || lines[0] != "seq,cycle,kind,pc,addr,action,reward" {
		t.Errorf("CSV output = %q", buf.String())
	}
}

func TestKindIsAccess(t *testing.T) {
	for k := KindHit; k <= KindRoleSwitch; k++ {
		want := k == KindHit || k == KindMiss || k == KindLateHit
		if k.IsAccess() != want {
			t.Errorf("%v.IsAccess() = %v, want %v", k, k.IsAccess(), want)
		}
	}
}

// fakeProbe serves scripted cumulative stats.
type fakeProbe struct{ stats ControllerStats }

func (p *fakeProbe) TelemetryStats() ControllerStats { return p.stats }

func TestCollectorEmitWindowDiffsCumulative(t *testing.T) {
	c, err := New(Config{KeepWindows: true, WindowSize: 100})
	if err != nil {
		t.Fatal(err)
	}
	c.BeginRun("wl", "ctrl")
	p := &fakeProbe{stats: ControllerStats{
		Epsilon:      0.5,
		RewardSum:    10,
		ActionNames:  []string{"a", "b"},
		ActionCounts: []uint64{60, 40},
		ArmIssued:    []uint64{30, 0},
		QValues:      []float64{1, 2, 3},
	}}
	c.EmitWindow(SimWindow{Accesses: 100, Hits: 70, Misses: 30, Instructions: 4000, Cycles: 2000, Issued: 30, Useful: 15}, p)

	// Second window: cumulative counters advance; the snapshot must
	// report only the in-window delta.
	p.stats.RewardSum = 25
	p.stats.ActionCounts = []uint64{70, 130}
	p.stats.ArmIssued = []uint64{42, 0}
	p.stats.QValues = []float64{5}
	c.EmitWindow(SimWindow{Accesses: 100, Hits: 50, Misses: 50, Instructions: 4000, Cycles: 4000}, p)

	w := c.Windows()
	if len(w) != 2 {
		t.Fatalf("got %d windows", len(w))
	}
	w0, w1 := w[0], w[1]
	if w0.Workload != "wl" || w0.Source != "ctrl" || w0.Window != 0 || w1.Window != 1 {
		t.Errorf("labels: %+v %+v", w0, w1)
	}
	if w0.IPC != 2 || w1.IPC != 1 {
		t.Errorf("IPC = %v, %v", w0.IPC, w1.IPC)
	}
	if w0.MPKI != 7.5 || w0.HitRate != 0.7 || w0.Accuracy != 0.5 {
		t.Errorf("w0 rates: %+v", w0)
	}
	if w0.RewardSum != 10 || w1.RewardSum != 15 {
		t.Errorf("reward deltas = %v, %v", w0.RewardSum, w1.RewardSum)
	}
	if w0.Arms[0].Share != 0.6 || w0.Arms[1].Share != 0.4 {
		t.Errorf("w0 shares: %+v", w0.Arms)
	}
	// Window 1 deltas: a += 10, b += 90 -> shares 0.1 / 0.9.
	if w1.Arms[0].Share != 0.1 || w1.Arms[1].Share != 0.9 {
		t.Errorf("w1 shares: %+v", w1.Arms)
	}
	if w1.Arms[0].Issued != 12 {
		t.Errorf("w1 arm issued = %d, want 12", w1.Arms[0].Issued)
	}
	if w0.Q.N != 3 || w0.Q.Max != 3 || w1.Q.N != 1 || w1.Q.Mean != 5 {
		t.Errorf("Q summaries: %+v %+v", w0.Q, w1.Q)
	}

	// BeginRun resets the diff base and window index.
	c.BeginRun("wl2", "ctrl")
	p.stats.RewardSum = 30
	c.EmitWindow(SimWindow{Accesses: 100}, p)
	w2 := c.Windows()[2]
	if w2.Window != 0 || w2.Workload != "wl2" {
		t.Errorf("post-BeginRun window: %+v", w2)
	}
	if w2.RewardSum != 30 {
		t.Errorf("post-BeginRun reward = %v, want full cumulative 30", w2.RewardSum)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestCollectorWritesFiles(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.BeginRun("wl", "src")
	c.Trace(Event{Seq: 1, Kind: KindMiss})
	c.Registry().Counter("test.counter").Add(3)
	c.EmitWindow(SimWindow{Accesses: 10, Hits: 5}, nil)
	m := c.Manifest()
	m.Workload = "wl"
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Errorf("second Close: %v", err)
	}

	for _, name := range []string{"manifest.json", "windows.jsonl", "trace.jsonl", "metrics.json"} {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(bytes.TrimSpace(b)) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	var man Manifest
	b, _ := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err := json.Unmarshal(b, &man); err != nil {
		t.Fatal(err)
	}
	if man.Workload != "wl" || len(man.Runs) != 1 || man.Runs[0].Source != "src" {
		t.Errorf("manifest = %+v", man)
	}
	if man.GoVersion == "" || man.WallTimeSec < 0 {
		t.Errorf("manifest env facts missing: %+v", man)
	}
	var snap RegistrySnapshot
	b, _ = os.ReadFile(filepath.Join(dir, "metrics.json"))
	if err := json.Unmarshal(b, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Counters["test.counter"] != 3 {
		t.Errorf("metrics.json counters = %v", snap.Counters)
	}
}

func TestCollectorTraceCSVByExtension(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.csv")
	c, err := New(Config{TraceOut: out, TraceSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	c.Trace(Event{Seq: 1, Kind: KindHit})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(b), "seq,cycle,kind") {
		t.Errorf("trace.csv = %q", b)
	}
}

func TestRewardsCSVSinkFormat(t *testing.T) {
	var buf bytes.Buffer
	s := NewRewardsCSVSink(&buf)
	w := WindowSnapshot{Window: 0, RewardSum: -12,
		Arms: []ArmStats{{Name: "bo", Share: 0.25}, {Name: "NP", Share: 0.75}}}
	if err := s.WriteWindow(w); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	want := "window,reward,bo,NP\n0,-12.0,0.250,0.750\n"
	if buf.String() != want {
		t.Errorf("rewards csv = %q, want %q", buf.String(), want)
	}
}
