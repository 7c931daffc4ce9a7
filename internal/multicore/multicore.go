// Package multicore extends the simulator to multi-core ensembles —
// the paper's stated future work ("ensemble prefetching for multi-core
// architectures", Section VIII). Each core runs its own trace through
// private L1D/L2 caches and its own prefetch source (e.g. a per-core
// ReSemble controller); all cores share the LLC and the DRAM channel,
// so prefetching decisions interact through capacity contention and
// bandwidth. A core's private L1D/L2 outcome depends on its trace
// alone, so it is read from the trace's shared sim.Filter.
//
// The timing model is the same ROB/issue-width-bounded model as the
// single-core simulator; cores are interleaved event-style by advancing
// whichever core has the smallest dispatch clock.
package multicore

import (
	"fmt"

	"resemble/internal/cache"
	"resemble/internal/mem"
	"resemble/internal/metrics"
	"resemble/internal/prefetch"
	"resemble/internal/sim"
	"resemble/internal/trace"
)

// Core pairs one hardware context's trace with its prefetch source
// (nil for no prefetching).
type Core struct {
	Trace  *trace.Trace
	Source sim.Source
}

// Config parameterizes the multi-core run.
type Config struct {
	// Sim supplies the per-core cache geometry, timing parameters and
	// the shared-LLC/DRAM parameters (the LLC config describes the
	// single shared LLC).
	Sim sim.Config
	// RelocateCores remaps each core's physical addresses into a
	// disjoint region (core id in the high address bits), modelling
	// separate working sets; disable to model shared data.
	RelocateCores bool
}

// DefaultConfig returns the shared-LLC configuration: per-core L1/L2 as
// in sim.DefaultConfig, a shared LLC of the same total size, and a
// shared DRAM channel.
func DefaultConfig() Config {
	return Config{Sim: sim.DefaultConfig(), RelocateCores: true}
}

// CoreResult is one core's outcome.
type CoreResult struct {
	Core   int
	Result sim.Result
}

// Result aggregates a multi-core run.
type Result struct {
	PerCore []CoreResult
	// SharedLLC holds the shared cache's stats over the measured
	// region.
	SharedLLC cache.Stats
	// AvgIPC is the arithmetic mean of the per-core IPCs.
	AvgIPC float64
}

// WeightedSpeedup computes the standard multi-programmed metric against
// a baseline run: sum_i IPC_i / IPC_i^base / N.
func (r Result) WeightedSpeedup(base Result) float64 {
	if len(r.PerCore) == 0 || len(base.PerCore) != len(r.PerCore) {
		return 0
	}
	var sum float64
	for i := range r.PerCore {
		if b := base.PerCore[i].Result.IPC; b > 0 {
			sum += r.PerCore[i].Result.IPC / b
		}
	}
	return sum / float64(len(r.PerCore))
}

// coreState is the per-core timing and hierarchy state.
type coreState struct {
	id       int
	trace    *trace.Trace
	source   sim.Source
	priv     *sim.Filter // private L1D/L2 outcome of each record
	next     int         // next record index
	warmupAt int

	dispatch, retire float64
	lastID           uint64
	robQ             []loadRetire

	// Measured-region counters.
	instrBase   uint64
	cyclesBase  float64
	llcAccesses uint64
	llcMisses   uint64
	issued      uint64
	lateUseful  uint64
	accessIdx   int
	relocate    mem.Addr
}

type loadRetire struct {
	id     uint64
	retire float64
}

// Run simulates the cores to completion and returns per-core results.
func Run(cfg Config, cores []Core) (Result, error) {
	if len(cores) == 0 {
		return Result{}, fmt.Errorf("multicore: no cores")
	}
	if err := cfg.Sim.Validate(); err != nil {
		return Result{}, err
	}
	m := &machine{cfg: cfg}
	m.llc = cache.New(cfg.Sim.LLC)
	m.pendingSet = make(map[mem.Line]float64)
	m.states = make([]*coreState, len(cores))
	for i, c := range cores {
		if c.Trace == nil || c.Trace.Len() == 0 {
			return Result{}, fmt.Errorf("multicore: core %d has an empty trace", i)
		}
		cs := &coreState{
			id:       i,
			trace:    c.Trace,
			source:   c.Source,
			priv:     sim.FilterFor(c.Trace, cfg.Sim),
			warmupAt: int(float64(c.Trace.Len()) * cfg.Sim.WarmupFraction),
		}
		if cfg.RelocateCores {
			// The shift is a multiple of every power-of-two set count
			// times the line size, so set indexes and tag comparisons in
			// the private caches, and with them the Filter, are unchanged.
			cs.relocate = mem.Addr(i) << 42
		}
		m.states[i] = cs
	}
	m.run()
	return m.result(), nil
}

// machine holds the shared components.
type machine struct {
	cfg Config

	llc          *cache.Cache
	mshr         []float64
	dramNextFree float64
	pending      []pendingFill
	pendingSet   map[mem.Line]float64

	states []*coreState
}

type pendingFill struct {
	line mem.Line
	fill float64
}

func (m *machine) run() {
	for {
		// Advance the unfinished core with the smallest dispatch clock.
		var cs *coreState
		for _, s := range m.states {
			if s.next >= s.trace.Len() {
				continue
			}
			if cs == nil || s.dispatch < cs.dispatch {
				cs = s
			}
		}
		if cs == nil {
			return
		}
		i := cs.next
		rec := cs.trace.Records[i]
		if i == cs.warmupAt {
			m.resetCore(cs, rec.ID)
		}
		cs.next++
		m.step(cs, rec, cs.priv.Level(i))
	}
}

func (m *machine) resetCore(cs *coreState, firstID uint64) {
	cs.instrBase = firstID
	cs.cyclesBase = cs.retire
	if cs.dispatch > cs.cyclesBase {
		cs.cyclesBase = cs.dispatch
	}
	cs.llcAccesses = 0
	cs.llcMisses = 0
	cs.issued = 0
	cs.lateUseful = 0
}

// step mirrors the single-core timing model with shared LLC/DRAM.
func (m *machine) step(cs *coreState, rec trace.Record, lvl sim.Level) {
	w := float64(m.cfg.Sim.IssueWidth)
	gapInstr := float64(rec.ID - cs.lastID)
	dispatch := cs.dispatch + gapInstr/w
	if rec.ID >= uint64(m.cfg.Sim.ROB) {
		if rt, ok := cs.retireTimeOf(rec.ID-uint64(m.cfg.Sim.ROB), m.cfg.Sim.IssueWidth); ok && rt > dispatch {
			dispatch = rt
		}
	}
	m.commitFills(dispatch)

	lat := m.access(cs, rec, lvl, dispatch)

	completion := dispatch + lat
	retire := cs.retire + gapInstr/w
	if completion > retire {
		retire = completion
	}
	cs.dispatch = dispatch
	cs.retire = retire
	cs.lastID = rec.ID
	cs.robQ = append(cs.robQ, loadRetire{id: rec.ID, retire: retire})
	for len(cs.robQ) > 1 && cs.robQ[1].id+uint64(m.cfg.Sim.ROB) <= rec.ID {
		cs.robQ = cs.robQ[1:]
	}
}

func (cs *coreState) retireTimeOf(id uint64, width int) (float64, bool) {
	var best *loadRetire
	for i := len(cs.robQ) - 1; i >= 0; i-- {
		if cs.robQ[i].id <= id {
			best = &cs.robQ[i]
			break
		}
	}
	if best == nil {
		return 0, false
	}
	return best.retire + float64(id-best.id)/float64(width), true
}

func (m *machine) access(cs *coreState, rec trace.Record, lvl sim.Level, now float64) float64 {
	switch lvl {
	case sim.L1DHit:
		return float64(m.cfg.Sim.L1D.Latency)
	case sim.L2Hit:
		return float64(m.cfg.Sim.L2.Latency)
	}
	addr := rec.Addr + cs.relocate
	line := mem.LineOf(addr)
	cs.accessIdx++
	cs.llcAccesses++
	hit, firstUse := m.llc.Access(line)
	var lat float64
	switch {
	case hit:
		lat = float64(m.cfg.Sim.LLC.Latency)
	default:
		if fill, ok := m.pendingSet[line]; ok {
			cs.lateUseful++
			remaining := fill - now
			if remaining < float64(m.cfg.Sim.LLC.Latency) {
				remaining = float64(m.cfg.Sim.LLC.Latency)
			}
			lat = remaining
			delete(m.pendingSet, line)
			m.llc.Insert(line, false)
		} else {
			cs.llcMisses++
			start := m.dramIssue(now)
			lat = (start - now) + float64(m.cfg.Sim.LLC.Latency) + float64(m.cfg.Sim.DRAMLatency)
			m.llc.Insert(line, false)
		}
	}

	if cs.source != nil {
		ctx := prefetch.AccessContext{
			Index:       cs.accessIdx,
			ID:          rec.ID,
			PC:          rec.PC,
			Addr:        addr,
			Line:        line,
			Hit:         hit,
			PrefetchHit: firstUse,
		}
		m.issuePrefetches(cs, cs.source.OnAccess(ctx), now)
	}
	return lat
}

func (m *machine) dramIssue(now float64) float64 {
	start := now
	if start < m.dramNextFree {
		start = m.dramNextFree
	}
	if len(m.mshr) >= m.cfg.Sim.LLC.MSHRs {
		oldest := m.mshr[0]
		m.mshr = m.mshr[1:]
		if oldest > start {
			start = oldest
		}
	}
	for len(m.mshr) > 0 && m.mshr[0] <= start {
		m.mshr = m.mshr[1:]
	}
	m.mshr = append(m.mshr, start+float64(m.cfg.Sim.DRAMLatency))
	m.dramNextFree = start + float64(m.cfg.Sim.DRAMInterval)
	return start
}

func (m *machine) issuePrefetches(cs *coreState, lines []mem.Line, now float64) {
	n := 0
	for _, line := range lines {
		if n >= m.cfg.Sim.MaxDegree {
			break
		}
		n++
		if m.llc.Contains(line) {
			continue
		}
		if _, inFlight := m.pendingSet[line]; inFlight {
			continue
		}
		issue := now + float64(m.cfg.Sim.PrefetchLatency)
		start := m.dramIssue(issue)
		fill := start + float64(m.cfg.Sim.DRAMLatency) + float64(m.cfg.Sim.LLC.Latency)
		cs.issued++
		m.pending = append(m.pending, pendingFill{line: line, fill: fill})
		m.pendingSet[line] = fill
	}
}

func (m *machine) commitFills(now float64) {
	i := 0
	for ; i < len(m.pending); i++ {
		p := m.pending[i]
		if p.fill > now {
			break
		}
		if _, still := m.pendingSet[p.line]; !still {
			continue
		}
		delete(m.pendingSet, p.line)
		m.llc.Insert(p.line, true)
	}
	m.pending = m.pending[i:]
}

func (m *machine) result() Result {
	var res Result
	res.SharedLLC = m.llc.Stats()
	var ipcs []float64
	for _, cs := range m.states {
		r := sim.Result{
			Workload: cs.trace.Name,
			Source:   "none",
		}
		if cs.source != nil {
			r.Source = cs.source.Name()
		}
		r.Instructions = cs.trace.Instructions() - cs.instrBase
		end := cs.retire
		if cs.dispatch > end {
			end = cs.dispatch
		}
		r.Cycles = end - cs.cyclesBase
		if r.Cycles > 0 {
			r.IPC = float64(r.Instructions) / r.Cycles
		}
		r.LLCAccesses = cs.llcAccesses
		r.LLCMisses = cs.llcMisses
		r.PrefetchesIssued = cs.issued
		r.LatePrefetchHits = cs.lateUseful
		// Shared-LLC useful prefetches cannot be attributed per core:
		// late hits are per-core, in-cache useful counts are shared
		// (Result.SharedLLC). Per-core useful reports the late hits
		// only.
		r.UsefulPrefetches = cs.lateUseful
		if r.Instructions > 0 {
			r.MPKI = float64(r.LLCMisses) * 1000 / float64(r.Instructions)
		}
		res.PerCore = append(res.PerCore, CoreResult{Core: cs.id, Result: r})
		ipcs = append(ipcs, r.IPC)
	}
	res.AvgIPC = metrics.Mean(ipcs)
	return res
}
