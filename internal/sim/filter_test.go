package sim

import (
	"bytes"
	"encoding/gob"
	"io"
	"math"
	"reflect"
	"testing"

	"resemble/internal/cache"
	"resemble/internal/checkpoint"
	"resemble/internal/core"
	"resemble/internal/ensemble/sbp"
	"resemble/internal/flatmap"
	"resemble/internal/mem"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/bo"
	"resemble/internal/prefetch/domino"
	"resemble/internal/prefetch/isb"
	"resemble/internal/prefetch/spp"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// refSim is the simulator as it was before the private hierarchy moved
// into the trace's filter: it owns an L1D and an L2 and runs every
// record through them inside access. The LLC, DRAM, prefetch and
// telemetry code below access is the Simulator's own.
type refSim struct {
	*Simulator
	l1d, l2 *cache.Cache
}

func newRefSim(cfg Config) *refSim {
	return &refSim{Simulator: New(cfg), l1d: cache.New(cfg.L1D), l2: cache.New(cfg.L2)}
}

// run steps records [0, stop) the way Runner.Run's plain path does,
// attaching tel (nil for none) and src as Runner.Run attaches them.
func (r *refSim) run(tr *trace.Trace, src Source, tel *telemetry.Collector, stop int) {
	if tel != nil {
		name := "none"
		if src != nil {
			name = src.Name()
		}
		r.AttachTelemetry(tel)
		tel.BeginRun(tr.Name, name)
		if a, ok := src.(telemetry.Attachable); ok {
			a.AttachTelemetry(tel)
		}
	}
	if p, ok := src.(telemetry.ControllerProbe); ok {
		r.probe = p
	}
	warmupEnd := int(float64(len(tr.Records)) * r.cfg.WarmupFraction)
	for i := 0; i < stop; i++ {
		rec := tr.Records[i]
		if i == warmupEnd {
			r.resetMeasurement(rec.ID)
			r.l1d.ResetStats()
			r.l2.ResetStats()
		}
		r.step(rec, src)
	}
}

// result finishes a complete run: Runner.Run's end-of-run flush, and
// the L1D/L2 statistics from the reference caches.
func (r *refSim) result(tr *trace.Trace, src Source) Result {
	if r.winSize > 0 {
		r.flushCounters()
	}
	r.priv = &filter{l1d: r.l1d.Stats(), l2: r.l2.Stats()}
	return r.Simulator.result(tr, src)
}

// step is Simulator.step with the reference access.
func (r *refSim) step(rec trace.Record, src Source) {
	s := r.Simulator
	w := float64(s.cfg.IssueWidth)
	gapInstr := float64(rec.ID - s.lastID)
	dispatch := s.dispatch + gapInstr/w
	if rec.ID >= uint64(s.cfg.ROB) {
		if rt, ok := s.retireTimeOf(rec.ID - uint64(s.cfg.ROB)); ok && rt > dispatch {
			dispatch = rt
		}
	}
	s.commitFills(dispatch)
	idxBefore := s.accessIdx
	lat := r.access(rec, dispatch, src)
	completion := dispatch + lat
	retire := s.retire + gapInstr/w
	if completion > retire {
		retire = completion
	}
	s.dispatch = dispatch
	s.retire = retire
	if s.winSize > 0 && s.accessIdx != idxBefore {
		s.windowTick(rec)
	}
	s.lastID = rec.ID
	if len(s.robQ) == cap(s.robQ) && s.robHead > 0 {
		n := copy(s.robQ, s.robQ[s.robHead:])
		s.robQ = s.robQ[:n]
		s.robHead = 0
	}
	s.robQ = append(s.robQ, loadRetire{id: rec.ID, retire: retire})
	for len(s.robQ)-s.robHead > 1 && s.robQ[s.robHead+1].id+uint64(s.cfg.ROB) <= rec.ID {
		s.robHead++
	}
}

// access is the full-hierarchy access the filter replaced: L1D, L2,
// then LLC/DRAM, with the L2 and L1D fills after the LLC access.
func (r *refSim) access(rec trace.Record, now float64, src Source) float64 {
	s := r.Simulator
	line := rec.Line()
	if hit, _ := r.l1d.Access(line); hit {
		return float64(s.cfg.L1D.Latency)
	}
	if hit, _ := r.l2.Access(line); hit {
		r.l1d.Insert(line, false)
		return float64(s.cfg.L2.Latency)
	}

	s.accessIdx++
	s.llcAccesses++
	s.win.Accesses++
	hit, firstUse := s.llc.Access(line)
	var lat float64
	kind := telemetry.KindMiss
	switch {
	case hit:
		lat = float64(s.cfg.LLC.Latency)
		kind = telemetry.KindHit
		s.win.Hits++
	default:
		if fv, ok := s.pendingSet.Get(line); ok {
			s.lateUseful++
			remaining := math.Float64frombits(fv) - now
			if remaining < float64(s.cfg.LLC.Latency) {
				remaining = float64(s.cfg.LLC.Latency)
			}
			lat = remaining
			s.removePending(line)
			s.llc.Insert(line, false)
			kind = telemetry.KindLateHit
			s.win.LateHits++
			s.win.Useful++
		} else {
			s.llcMisses++
			start := s.dramIssue(now)
			lat = (start - now) + float64(s.cfg.LLC.Latency) + float64(s.cfg.DRAMLatency)
			s.llc.Insert(line, false)
			s.win.Misses++
		}
	}
	if firstUse {
		s.win.Useful++
	}
	if s.tel != nil {
		s.tel.Trace(telemetry.Event{
			Seq: uint64(s.accessIdx), Cycle: now, Kind: kind,
			PC: rec.PC, Addr: uint64(rec.Addr),
		})
	}
	r.l2.Insert(line, false)
	r.l1d.Insert(line, false)

	if src != nil {
		ctx := prefetch.AccessContext{
			Index:       s.accessIdx,
			ID:          rec.ID,
			PC:          rec.PC,
			Addr:        rec.Addr,
			Line:        line,
			Hit:         hit,
			PrefetchHit: firstUse,
		}
		s.issuePrefetches(src.OnAccess(ctx), now)
	}
	return lat
}

// batchTraces are the four pattern classes a comparison batch runs:
// streaming, pointer chasing, graph and a mixed stencil.
var batchTraces = []string{"433.milc", "471.omnetpp", "gap.pr", "654.roms"}

// batchSources builds the seven controllers of a comparison batch: the
// two serving ensembles over the four arms, each arm alone, and the
// baseline (nil).
func batchSources() map[string]func() Source {
	arms := func() []prefetch.Prefetcher {
		return []prefetch.Prefetcher{
			bo.New(bo.Config{}), spp.New(spp.Config{}),
			isb.New(isb.Config{}), domino.New(domino.Config{}),
		}
	}
	return map[string]func() Source{
		"resemble-t": func() Source { return core.NewTabularController(core.DefaultConfig(), arms()) },
		"sbp-e":      func() Source { return sbp.New(sbp.Config{}, arms()) },
		"bo":         func() Source { return FromPrefetcher(bo.New(bo.Config{}), 2) },
		"spp":        func() Source { return FromPrefetcher(spp.New(spp.Config{}), 2) },
		"isb":        func() Source { return FromPrefetcher(isb.New(isb.Config{}), 2) },
		"domino":     func() Source { return FromPrefetcher(domino.New(domino.Config{}), 2) },
		"none":       func() Source { return nil },
	}
}

func lookupTrace(t testing.TB, name string, n int) *trace.Trace {
	t.Helper()
	w, err := trace.Lookup(name)
	if err != nil {
		t.Fatal(err)
	}
	return w.GenerateSeeded(n, w.Seed)
}

func keepWindows(t testing.TB) *telemetry.Collector {
	t.Helper()
	tel, err := telemetry.New(telemetry.Config{WindowSize: 256, KeepWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	return tel
}

// TestFilterMatchesFullHierarchy holds every run to the reference
// model that simulates the L1D and L2 inside each run: all seven
// controllers of a comparison batch on its four traces must give the
// same Result, L1D/L2 statistics included, and the same telemetry
// windows.
func TestFilterMatchesFullHierarchy(t *testing.T) {
	cfg := DefaultConfig()
	for _, name := range batchTraces {
		tr := lookupTrace(t, name, 6000)
		for ctrl, mk := range batchSources() {
			t.Run(name+"/"+ctrl, func(t *testing.T) {
				refTel, tel := keepWindows(t), keepWindows(t)
				ref := newRefSim(cfg)
				src := mk()
				ref.run(tr, src, refTel, len(tr.Records))
				want := ref.result(tr, src)
				got, err := NewRunner(cfg, WithTelemetry(tel)).Run(tr, mk())
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("result differs from the full-hierarchy reference:\nwant %+v\ngot  %+v", want, got)
				}
				if want.Caches["L1D"].Accesses == 0 || want.Caches["L2"].Accesses == 0 {
					t.Fatalf("the reference recorded no L1D/L2 accesses: %+v", want.Caches)
				}
				if ws := refTel.Windows(); len(ws) == 0 || !reflect.DeepEqual(ws, tel.Windows()) {
					t.Fatalf("telemetry windows differ from the reference's (%d vs %d windows)", len(tel.Windows()), len(ws))
				}
			})
		}
	}
}

// oldSimState is simState as checkpoints carried it while the
// simulator still owned its L1D and L2: with their contents.
type oldSimState struct {
	Dispatch float64
	Retire   float64
	LastID   uint64

	MSHR         []float64
	DRAMNextFree float64

	RobIDs     []uint64
	RobRetires []float64

	PendingLines []mem.Line
	PendingFills []float64
	SetLines     []mem.Line
	SetFills     []float64
	CtrlBusyTill float64

	InstrBase   uint64
	CyclesBase  float64
	LLCAccesses uint64
	LLCMisses   uint64
	Issued      uint64
	LateUseful  uint64
	Dropped     uint64

	AccessIdx int

	Win        telemetry.SimWindow
	WinInstrID uint64
	WinCycles  float64

	WinDups       uint64
	WinDRAMReqs   uint64
	WinMSHRStalls uint64

	L1D, L2, LLC []byte
}

// oldState encodes the reference simulator's state in the old format,
// L1D and L2 included.
func (r *refSim) oldState(t testing.TB) []byte {
	t.Helper()
	var cur bytes.Buffer
	if err := r.SaveState(&cur); err != nil {
		t.Fatal(err)
	}
	var st oldSimState
	if err := gob.NewDecoder(&cur).Decode(&st); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		c   *cache.Cache
		dst *[]byte
	}{{r.l1d, &st.L1D}, {r.l2, &st.L2}} {
		var buf bytes.Buffer
		if err := c.c.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		*c.dst = buf.Bytes()
	}
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(st); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestResumeFromOldFormatCheckpoint resumes runs from checkpoints in
// the format that still carried the L1D and L2, taken once before the
// warmup boundary and once after it. LoadState ignores those sections,
// and the resumed run must match the uninterrupted one, L1D/L2
// statistics included.
func TestResumeFromOldFormatCheckpoint(t *testing.T) {
	cfg := DefaultConfig()
	tr := lookupTrace(t, "471.omnetpp", 6000)
	mk := batchSources()["resemble-t"]
	want, err := NewRunner(cfg).Run(tr, mk())
	if err != nil {
		t.Fatal(err)
	}
	for _, cursor := range []int{700, 4100} { // warmup ends at record 1200
		ref := newRefSim(cfg)
		src := mk()
		ref.run(tr, src, nil, cursor)
		b := checkpoint.NewBuilder()
		meta := ckpMeta{Cursor: cursor, TraceName: tr.Name, TraceLen: len(tr.Records), Source: src.Name()}
		if err := b.Add("meta", func(w io.Writer) error { return gob.NewEncoder(w).Encode(&meta) }); err != nil {
			t.Fatal(err)
		}
		old := ref.oldState(t)
		if err := b.Add("sim", func(w io.Writer) error { _, err := w.Write(old); return err }); err != nil {
			t.Fatal(err)
		}
		if err := b.Add("source", src.(checkpoint.Stater).SaveState); err != nil {
			t.Fatal(err)
		}
		var blob bytes.Buffer
		if _, err := b.WriteTo(&blob); err != nil {
			t.Fatal(err)
		}
		got, err := NewRunner(cfg, WithResumeBlob(blob.Bytes())).Run(tr, mk())
		if err != nil {
			t.Fatalf("cursor %d: resume from an old-format checkpoint: %v", cursor, err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("cursor %d: resumed result differs from the uninterrupted run:\nwant %+v\ngot  %+v", cursor, want, got)
		}
	}
}

// FuzzSimLoadState: Simulator.LoadState must never panic on arbitrary
// bytes, and neither may stepping a simulator that accepted them. The
// corpus is seeded with a state in the old format, L1D and L2
// included, which must be accepted.
func FuzzSimLoadState(f *testing.F) {
	cfg := DefaultConfig()
	tr := streamTrace(3000)
	ref := newRefSim(cfg)
	ref.run(tr, &nextLineSource{degree: 2}, nil, 2000)
	old := ref.oldState(f)
	if err := New(cfg).LoadState(bytes.NewReader(old)); err != nil {
		f.Fatalf("old-format state rejected: %v", err)
	}
	f.Add(old)
	var cur bytes.Buffer
	if err := ref.SaveState(&cur); err != nil {
		f.Fatal(err)
	}
	f.Add(cur.Bytes())
	var st simState
	if err := gob.NewDecoder(bytes.NewReader(cur.Bytes())).Decode(&st); err != nil {
		f.Fatal(err)
	}
	st.SetLines, st.SetFills = []mem.Line{flatmap.Reserved}, []float64{1}
	var bad bytes.Buffer
	if err := gob.NewEncoder(&bad).Encode(st); err != nil {
		f.Fatal(err)
	}
	f.Add(bad.Bytes())
	f.Add([]byte("not a snapshot"))

	priv := filterFor(tr, cfg)
	f.Fuzz(func(t *testing.T, data []byte) {
		s := New(cfg)
		if err := s.LoadState(bytes.NewReader(data)); err != nil {
			return
		}
		src := &nextLineSource{degree: 2}
		for i := 2000; i < 2300; i++ {
			s.step(tr.Records[i], priv.Level(i), src)
		}
	})
}
