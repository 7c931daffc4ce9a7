package sim

import (
	"fmt"
	"math"

	"resemble/internal/cache"
	"resemble/internal/flatmap"
	"resemble/internal/mem"
	"resemble/internal/prefetch"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// Source decides what to prefetch on every LLC access. Individual
// prefetchers are adapted via FromPrefetcher; ensemble controllers
// implement Source directly.
type Source interface {
	// Name labels the source in results.
	Name() string
	// OnAccess observes one LLC access and returns the cache lines to
	// prefetch for it (possibly none). The slice is only read before
	// the next OnAccess call.
	OnAccess(prefetch.AccessContext) []mem.Line
	// Reset discards all learned state.
	Reset()
}

// Config holds the simulation parameters (scaled from the paper's
// Table V; see DefaultConfig).
type Config struct {
	L1D, L2, LLC cache.Config

	// DRAMLatency is the additional latency of a memory access beyond
	// the LLC, in cycles.
	DRAMLatency uint64
	// DRAMInterval is the minimum number of cycles between DRAM request
	// issues (per-core bandwidth bound).
	DRAMInterval uint64

	// IssueWidth is the core's dispatch/retire width.
	IssueWidth int
	// ROB is the reorder-buffer capacity in instructions.
	ROB int

	// MaxDegree bounds the prefetch lines issued per access.
	MaxDegree int

	// PrefetchLatency is the controller inference latency in cycles
	// added before a prefetch issues (Figure 11's T).
	PrefetchLatency uint64
	// LowThroughput models a non-pipelined controller that performs one
	// inference per PrefetchLatency cycles: prefetch opportunities that
	// arrive while the controller is busy are dropped (Figure 11 low
	// TP). When false, the controller is fully pipelined (high TP).
	LowThroughput bool

	// WarmupFraction is the fraction of accesses used for warmup;
	// statistics are collected on the remainder (the paper warms 20M of
	// 100M instructions).
	WarmupFraction float64
}

// DefaultConfig returns the evaluation configuration: the paper's
// Table V hierarchy scaled by 64× to match the synthetic workloads'
// footprints (see DESIGN.md), with Table V core parameters.
func DefaultConfig() Config {
	return Config{
		L1D: cache.Config{Name: "L1D", Sets: 8, Ways: 8, Latency: 5, MSHRs: 16},
		L2:  cache.Config{Name: "L2", Sets: 32, Ways: 8, Latency: 11, MSHRs: 32},
		LLC: cache.Config{Name: "LLC", Sets: 128, Ways: 16, Latency: 21, MSHRs: 32},

		DRAMLatency:  150,
		DRAMInterval: 4,

		IssueWidth: 4,
		ROB:        256,

		MaxDegree: 4,

		WarmupFraction: 0.2,
	}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	for _, cc := range []cache.Config{c.L1D, c.L2, c.LLC} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if c.IssueWidth <= 0 {
		return fmt.Errorf("sim: issue width must be positive")
	}
	if c.ROB <= 0 {
		return fmt.Errorf("sim: ROB must be positive")
	}
	if c.WarmupFraction < 0 || c.WarmupFraction >= 1 {
		return fmt.Errorf("sim: warmup fraction must be in [0,1)")
	}
	return nil
}

// Result summarizes one simulation run.
type Result struct {
	Workload string
	Source   string

	// Instructions and Cycles cover the measured (post-warmup) region.
	Instructions uint64
	Cycles       float64
	// IPC is Instructions/Cycles.
	IPC float64

	// LLCAccesses and LLCMisses are demand numbers at the LLC in the
	// measured region. LLCMisses counts uncovered misses (late prefetch
	// hits are covered).
	LLCAccesses uint64
	LLCMisses   uint64
	// MPKI is uncovered LLC misses per kilo-instruction.
	MPKI float64

	// PrefetchesIssued counts prefetch requests sent to memory;
	// UsefulPrefetches counts prefetched lines demand-referenced before
	// eviction (including late prefetches hit while in flight);
	// DroppedPrefetches counts suggestions dropped by the low-throughput
	// controller model.
	PrefetchesIssued  uint64
	UsefulPrefetches  uint64
	LatePrefetchHits  uint64
	DroppedPrefetches uint64

	// Accuracy is useful/issued; Coverage is useful/(useful+uncovered
	// misses) — the paper's "ratio of useful prefetches to the overall
	// cache misses".
	Accuracy float64
	Coverage float64

	// Caches holds the per-level statistics for the measured region.
	Caches map[string]cache.Stats
}

// IPCImprovement returns the relative IPC gain of r over base, e.g.
// 0.25 for a 25% improvement.
func (r Result) IPCImprovement(base Result) float64 {
	if base.IPC == 0 {
		return 0
	}
	return (r.IPC - base.IPC) / base.IPC
}

// pendingFill is an in-flight prefetch.
type pendingFill struct {
	line mem.Line
	fill float64 // cycle at which the line lands in the LLC
}

// loadRetire records a load's retire time for the ROB-occupancy model.
type loadRetire struct {
	id     uint64  // instruction id
	retire float64 // cycle the load retires
}

// sharedState is the part of the memory system every core sees: the
// LLC, the DRAM channel and the prefetch fills in flight to the LLC.
//
// The FIFO queues (mshr, pending, and coreState's robQ) are
// head-indexed: consuming the front advances the head instead of
// reslicing (s = s[1:] forces append to reallocate the backing array
// every few pushes), and pushes compact the live region back to the
// start once the backing array fills. Live contents are
// buf[head:len(buf)], oldest first; steady state allocates nothing.
type sharedState struct {
	llc          *cache.Cache
	mshr         []float64
	mshrHead     int
	dramNextFree float64

	pending  []pendingFill // FIFO by fill time
	pendHead int
	// pendingSet maps in-flight line -> fill time (float64 bits). A flat
	// open-addressed table: in-flight membership is probed on every miss
	// and every candidate prefetch, making this the hottest map in the
	// simulator.
	pendingSet *flatmap.Map
}

// coreState is one core's part: its timing, counters and telemetry.
type coreState struct {
	// priv is the private-hierarchy outcome of the trace being run
	// (set by simulate or NewCores; result reads its L1D/L2 statistics).
	priv *filter
	// offset is added to every record's address before the LLC line is
	// taken (a core's relocation on a multi-core machine; 0 otherwise).
	offset mem.Addr

	dispatch     float64 // dispatch clock of the most recent load
	retire       float64 // retire clock of the most recent load
	lastID       uint64  // instruction id of the most recent load
	robQ         []loadRetire
	robHead      int
	ctrlBusyTill float64 // low-TP controller availability

	// Counters (reset at warmup boundary).
	instrBase   uint64
	cyclesBase  float64
	llcAccesses uint64
	llcMisses   uint64
	issued      uint64
	lateUseful  uint64
	dropped     uint64

	accessIdx int

	// Telemetry (all nil/zero when no collector is attached; the
	// instrument handles are nil-safe, so the disabled cost is one nil
	// check per call site).
	tel        *telemetry.Collector
	probe      telemetry.ControllerProbe
	winSize    int
	win        telemetry.SimWindow
	winInstrID uint64 // rec.ID at the window start
	winCycles  float64

	// Per-window accumulators for counters that are not part of the
	// snapshot. All registry counters are fed from these plain fields at
	// window boundaries (flushCounters) instead of atomically on every
	// event, keeping the instrumented hot path within its overhead
	// budget (see BenchmarkSimulatorTelemetry).
	winDups       uint64
	winDRAMReqs   uint64
	winMSHRStalls uint64

	cHits, cMisses, cLateHits  *telemetry.Counter
	cUseful, cIssued, cDropped *telemetry.Counter
	cDup, cDRAMReq, cMSHRStall *telemetry.Counter
	hOccupancy                 *telemetry.Histogram
}

// Simulator runs traces through the LLC, DRAM and timing model: one
// core's state over the shared memory side, both held by value so the
// per-record path reaches every field in one load. The private L1D/L2
// are not simulated per run: each record's outcome there comes from
// the trace's shared filter.
type Simulator struct {
	cfg Config
	sharedState
	coreState
}

// AttachTelemetry wires the simulator to a collector: registry
// counters for the memory-system events, per-window snapshot emission,
// and sampled event tracing. A nil collector detaches.
func (s *Simulator) AttachTelemetry(tel *telemetry.Collector) {
	s.tel = tel
	s.winSize = tel.WindowSize()
	r := tel.Registry()
	s.cHits = r.Counter("sim.llc.hits")
	s.cMisses = r.Counter("sim.llc.misses")
	s.cLateHits = r.Counter("sim.llc.late_hits")
	s.cUseful = r.Counter("sim.llc.useful_prefetches")
	s.cIssued = r.Counter("sim.prefetch.issued")
	s.cDropped = r.Counter("sim.prefetch.dropped")
	s.cDup = r.Counter("sim.prefetch.duplicates")
	s.cDRAMReq = r.Counter("sim.dram.requests")
	s.cMSHRStall = r.Counter("sim.dram.mshr_stalls")
	s.hOccupancy = r.Histogram("sim.dram.mshr_occupancy")
}

// pendingHint sizes a new simulator's in-flight prefetch queue and set.
const pendingHint = 64

// New builds a simulator; it panics on invalid configuration.
func New(cfg Config) *Simulator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Simulator{
		cfg: cfg.normalized(),
		sharedState: sharedState{
			llc:        cache.New(cfg.LLC),
			mshr:       make([]float64, 0, cfg.LLC.MSHRs),
			pending:    make([]pendingFill, 0, pendingHint),
			pendingSet: flatmap.New(pendingHint),
		},
		coreState: newCoreState(cfg),
	}
}

// normalized returns c with the defaults New applies.
func (c Config) normalized() Config {
	c.MaxDegree = max(c.MaxDegree, 1)
	return c
}

// reset returns s to the state New(s.cfg) leaves it in, keeping its
// LLC ways, queues and in-flight set. Zeroing the core state also
// detaches the telemetry, the controller probe and the trace's private
// filter, so nothing of the previous run carries over.
func (s *Simulator) reset() {
	s.llc.Reset()
	s.pendingSet.Reset(pendingHint)
	s.sharedState = sharedState{
		llc:        s.llc,
		mshr:       s.mshr[:0],
		pending:    s.pending[:0],
		pendingSet: s.pendingSet,
	}
	s.coreState = coreState{robQ: s.robQ[:0]}
}

// newCoreState returns a core's initial state. The ROB queue holds at
// most one entry per id in a ROB-sized window plus the retained
// predecessor and the just-appended record; sizing it up front means
// the append in step never grows it.
func newCoreState(cfg Config) coreState {
	return coreState{robQ: make([]loadRetire, 0, cfg.ROB+2)}
}

// resetMeasurement marks the core's warmup boundary. It also restarts
// the LLC's statistics, so where cores share the LLC these cover the
// run from the last core's boundary on.
func (s *Simulator) resetMeasurement(firstID uint64) {
	s.instrBase = firstID
	s.cyclesBase = s.retireClock()
	s.llc.ResetStats()
	s.llcAccesses = 0
	s.llcMisses = 0
	s.issued = 0
	s.lateUseful = 0
	s.dropped = 0
}

// retireClock returns the current end-of-execution estimate.
func (s *Simulator) retireClock() float64 {
	if s.retire > s.dispatch {
		return s.retire
	}
	return s.dispatch
}

// step processes one trace record through timing, hierarchy and
// prefetching; lvl is the record's private-hierarchy outcome.
func (s *Simulator) step(rec trace.Record, lvl level, src Source) {
	w := float64(s.cfg.IssueWidth)

	// Dispatch: advance by the instruction gap, bounded by ROB space.
	gapInstr := float64(rec.ID - s.lastID)
	dispatch := s.dispatch + gapInstr/w
	// ROB constraint: instruction rec.ID dispatches only after
	// instruction rec.ID-ROB has retired.
	if rec.ID >= uint64(s.cfg.ROB) {
		if rt, ok := s.retireTimeOf(rec.ID - uint64(s.cfg.ROB)); ok && rt > dispatch {
			dispatch = rt
		}
	}

	// Commit prefetch fills that have landed by now.
	s.commitFills(dispatch)

	// Access the hierarchy.
	idxBefore := s.accessIdx
	lat := s.access(rec, lvl, dispatch, src)

	completion := dispatch + lat
	// In-order retire at the issue width.
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
	// Trim entries older than one ROB window behind.
	for len(s.robQ)-s.robHead > 1 && s.robQ[s.robHead+1].id+uint64(s.cfg.ROB) <= rec.ID {
		s.robHead++
	}
}

// retireTimeOf estimates the retire time of instruction id using the
// retire times of recorded loads: non-load instructions retire at the
// issue width after the closest preceding load. The queue is sorted by
// id, and step's trim leaves robQ[robHead] at the last load at or
// before the previous step's target (or at the oldest load). Targets
// only grow, so the last load with id <= target is found by scanning
// forward from the head; the loads the scan passes are the ones the
// step's trim then drops, so the scan is O(1) amortized.
func (s *Simulator) retireTimeOf(id uint64) (float64, bool) {
	i := s.robHead
	if i == len(s.robQ) || s.robQ[i].id > id {
		return 0, false
	}
	for i+1 < len(s.robQ) && s.robQ[i+1].id <= id {
		i++
	}
	best := &s.robQ[i]
	return best.retire + float64(id-best.id)/float64(s.cfg.IssueWidth), true
}

// access runs one demand access through the hierarchy and returns its
// load-to-use latency in cycles. lvl says whether the private L1D/L2
// serve it; otherwise it goes through LLC/DRAM and drives the prefetch
// source.
func (s *Simulator) access(rec trace.Record, lvl level, now float64, src Source) float64 {
	switch lvl {
	case l1dHit:
		return float64(s.cfg.L1D.Latency)
	case l2Hit:
		return float64(s.cfg.L2.Latency)
	}

	// LLC access: this is the stream prefetchers observe.
	addr := rec.Addr + s.offset
	line := mem.LineOf(addr)
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
			// Late prefetch: the line is in flight; wait for the
			// remaining latency (at least an LLC hit's worth).
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
			// True miss: go to DRAM under MSHR and bandwidth bounds.
			s.llcMisses++
			start := s.dramIssue(now)
			lat = (start - now) + float64(s.cfg.LLC.Latency) + float64(s.cfg.DRAMLatency)
			s.llc.Insert(line, false)
			s.win.Misses++
		}
	}
	if firstUse {
		// First demand use of a prefetched line: the prefetch paid off.
		s.win.Useful++
	}
	if s.tel != nil {
		s.tel.Trace(telemetry.Event{
			Seq: uint64(s.accessIdx), Cycle: now, Kind: kind,
			PC: rec.PC, Addr: uint64(addr),
		})
	}
	if src != nil {
		ctx := prefetch.AccessContext{
			Index:       s.accessIdx,
			ID:          rec.ID,
			PC:          rec.PC,
			Addr:        addr,
			Line:        line,
			Hit:         hit,
			PrefetchHit: firstUse,
		}
		s.issuePrefetches(src.OnAccess(ctx), now)
	}
	return lat
}

// dramIssue reserves a DRAM request slot at or after now, honouring
// MSHR occupancy and the inter-request interval, and returns the issue
// time.
func (s *Simulator) dramIssue(now float64) float64 {
	start := now
	if start < s.dramNextFree {
		start = s.dramNextFree
	}
	if len(s.mshr)-s.mshrHead >= s.cfg.LLC.MSHRs {
		// Wait for the oldest outstanding request (FIFO completion
		// order holds because latency is constant).
		oldest := s.mshr[s.mshrHead]
		s.mshrHead++
		if oldest > start {
			start = oldest
		}
		s.winMSHRStalls++
		if s.tel != nil {
			s.tel.Trace(telemetry.Event{Seq: uint64(s.accessIdx), Cycle: start, Kind: telemetry.KindMSHRStall})
		}
	}
	// Drop completed entries from the front.
	for len(s.mshr) > s.mshrHead && s.mshr[s.mshrHead] <= start {
		s.mshrHead++
	}
	if len(s.mshr) == cap(s.mshr) && s.mshrHead > 0 {
		n := copy(s.mshr, s.mshr[s.mshrHead:])
		s.mshr = s.mshr[:n]
		s.mshrHead = 0
	}
	s.mshr = append(s.mshr, start+float64(s.cfg.DRAMLatency))
	s.dramNextFree = start + float64(s.cfg.DRAMInterval)
	s.winDRAMReqs++
	// Queue occupancy is sampled deterministically 1-in-8: the
	// histogram's mutex is too expensive for every request, and the
	// occupancy distribution survives uniform decimation.
	if s.winDRAMReqs&7 == 0 {
		s.hOccupancy.Observe(float64(len(s.mshr) - s.mshrHead))
	}
	return start
}

// issuePrefetches sends the source's suggestions to memory, modelling
// inference latency and the low-throughput controller.
func (s *Simulator) issuePrefetches(lines []mem.Line, now float64) {
	n := 0
	for _, line := range lines {
		if n >= s.cfg.MaxDegree {
			break
		}
		if s.cfg.LowThroughput && s.cfg.PrefetchLatency > 0 {
			if now < s.ctrlBusyTill {
				s.dropped++
				s.win.Dropped++
				if s.tel != nil {
					s.tel.Trace(telemetry.Event{Seq: uint64(s.accessIdx), Cycle: now, Kind: telemetry.KindPrefetchDrop, Addr: uint64(mem.LineAddr(line))})
				}
				continue
			}
			s.ctrlBusyTill = now + float64(s.cfg.PrefetchLatency)
		}
		n++
		if s.llc.Contains(line) {
			s.winDups++
			continue
		}
		if s.pendingSet.Contains(line) {
			s.winDups++
			continue
		}
		issue := now + float64(s.cfg.PrefetchLatency)
		start := s.dramIssue(issue)
		fill := start + float64(s.cfg.DRAMLatency) + float64(s.cfg.LLC.Latency)
		s.issued++
		s.win.Issued++
		if s.tel != nil {
			s.tel.Trace(telemetry.Event{Seq: uint64(s.accessIdx), Cycle: start, Kind: telemetry.KindPrefetchIssue, Addr: uint64(mem.LineAddr(line))})
		}
		if len(s.pending) == cap(s.pending) && s.pendHead > 0 {
			n := copy(s.pending, s.pending[s.pendHead:])
			s.pending = s.pending[:n]
			s.pendHead = 0
		}
		s.pending = append(s.pending, pendingFill{line: line, fill: fill})
		s.pendingSet.Set(line, math.Float64bits(fill))
	}
}

// commitFills inserts landed prefetches into the LLC.
func (s *Simulator) commitFills(now float64) {
	i := s.pendHead
	for ; i < len(s.pending); i++ {
		p := s.pending[i]
		if p.fill > now {
			break
		}
		if !s.pendingSet.Delete(p.line) {
			continue // consumed early as a late prefetch hit
		}
		s.llc.Insert(p.line, true)
		if s.tel != nil {
			s.tel.Trace(telemetry.Event{Seq: uint64(s.accessIdx), Cycle: p.fill, Kind: telemetry.KindFill, Addr: uint64(mem.LineAddr(p.line))})
		}
	}
	s.pendHead = i
}

// windowTick advances the snapshot window after an LLC access and
// emits a WindowSnapshot every winSize accesses. Windows cover the
// whole run (warmup included): the learning trajectory the snapshots
// exist to expose starts at access zero.
func (s *Simulator) windowTick(rec trace.Record) {
	if int(s.win.Accesses) < s.winSize {
		return
	}
	clock := s.retireClock()
	s.win.Instructions = rec.ID - s.winInstrID
	s.win.Cycles = clock - s.winCycles
	s.tel.EmitWindow(s.win, s.probe)
	s.flushCounters()
	s.win = telemetry.SimWindow{}
	s.winInstrID = rec.ID
	s.winCycles = clock
}

// flushCounters feeds the window's accumulated event counts into the
// registry counters in one atomic Add each, so the per-event hot path
// never touches an atomic. Called at window boundaries and at the end
// of the run (the trailing partial window reaches the counters even
// though no snapshot is emitted for it).
func (s *Simulator) flushCounters() {
	s.cHits.Add(s.win.Hits)
	s.cMisses.Add(s.win.Misses)
	s.cLateHits.Add(s.win.LateHits)
	s.cUseful.Add(s.win.Useful)
	s.cIssued.Add(s.win.Issued)
	s.cDropped.Add(s.win.Dropped)
	s.cDup.Add(s.winDups)
	s.cDRAMReq.Add(s.winDRAMReqs)
	s.cMSHRStall.Add(s.winMSHRStalls)
	s.winDups, s.winDRAMReqs, s.winMSHRStalls = 0, 0, 0
}

func (s *Simulator) removePending(line mem.Line) {
	s.pendingSet.Delete(line)
	// The slice entry stays; commitFills skips consumed entries.
}

// result assembles the measured-region metrics.
func (s *Simulator) result(tr *trace.Trace, src Source) Result {
	l1d, l2 := s.priv.Stats()
	r := Result{
		Workload: tr.Name,
		Source:   "none",
		Caches: map[string]cache.Stats{
			"L1D": l1d,
			"L2":  l2,
			"LLC": s.llc.Stats(),
		},
	}
	if src != nil {
		r.Source = src.Name()
	}
	r.Instructions = tr.Instructions() - s.instrBase
	r.Cycles = s.retireClock() - s.cyclesBase
	if r.Cycles > 0 {
		r.IPC = float64(r.Instructions) / r.Cycles
	}
	r.LLCAccesses = s.llcAccesses
	r.LLCMisses = s.llcMisses
	r.PrefetchesIssued = s.issued
	r.LatePrefetchHits = s.lateUseful
	r.DroppedPrefetches = s.dropped
	r.UsefulPrefetches = s.llc.Stats().UsefulPrefetch + s.lateUseful
	if r.PrefetchesIssued > 0 {
		r.Accuracy = float64(r.UsefulPrefetches) / float64(r.PrefetchesIssued)
		// Prefetches issued during warmup but consumed after the reset
		// can push the ratio over 1; clamp at the boundary.
		if r.Accuracy > 1 {
			r.Accuracy = 1
		}
	}
	if tot := r.UsefulPrefetches + r.LLCMisses; tot > 0 {
		r.Coverage = float64(r.UsefulPrefetches) / float64(tot)
	}
	if r.Instructions > 0 {
		r.MPKI = float64(r.LLCMisses) * 1000 / float64(r.Instructions)
	}
	return r
}

// FromPrefetcher adapts an individual prefetcher to the Source
// interface, issuing up to degree of its suggestions per access.
func FromPrefetcher(p prefetch.Prefetcher, degree int) Source {
	if degree <= 0 {
		degree = 1
	}
	return &prefetcherSource{p: p, degree: degree}
}

type prefetcherSource struct {
	p      prefetch.Prefetcher
	degree int
	buf    []mem.Line

	accesses uint64
	issuing  uint64 // accesses with at least one suggestion
	lines    uint64 // lines issued
}

func (ps *prefetcherSource) Name() string { return ps.p.Name() }

func (ps *prefetcherSource) OnAccess(a prefetch.AccessContext) []mem.Line {
	ps.buf = ps.buf[:0]
	for i, sug := range ps.p.Observe(a) {
		if i >= ps.degree {
			break
		}
		ps.buf = append(ps.buf, sug.Line)
	}
	ps.accesses++
	if len(ps.buf) > 0 {
		ps.issuing++
		ps.lines += uint64(len(ps.buf))
	}
	return ps.buf
}

// AttachTelemetry implements telemetry.Attachable by forwarding to the
// adapted prefetcher when it is itself attachable (e.g. the fault
// injection wrapper).
func (ps *prefetcherSource) AttachTelemetry(t *telemetry.Collector) {
	if a, ok := ps.p.(telemetry.Attachable); ok {
		a.AttachTelemetry(t)
	}
}

func (ps *prefetcherSource) Reset() {
	ps.p.Reset()
	ps.accesses, ps.issuing, ps.lines = 0, 0, 0
}

// TelemetryStats implements telemetry.ControllerProbe for a solo
// prefetcher: a one-arm action space whose count is the accesses it
// actually suggested on (usefulness is attributed by the simulator's
// window counters, not here).
func (ps *prefetcherSource) TelemetryStats() telemetry.ControllerStats {
	return telemetry.ControllerStats{
		Steps:        int(ps.accesses),
		ActionNames:  []string{ps.p.Name()},
		ActionCounts: []uint64{ps.issuing},
		ArmIssued:    []uint64{ps.lines},
	}
}
