package sim

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"math"

	"resemble/internal/checkpoint"
	"resemble/internal/flatmap"
	"resemble/internal/mem"
	"resemble/internal/telemetry"
)

// Checkpointing (checkpoint.Stater) for the simulator and the solo
// prefetcher adapter. The snapshot carries the complete timing, LLC
// and counter state — including the per-window accumulators that have
// not been flushed to the registry yet — so a resumed run continues
// the event stream exactly where the interrupted one stopped. The
// private L1D/L2 are not part of it: their contents are a function of
// the trace prefix, and a resumed run reads them from the trace's
// filter.

// simState is the gob mirror of Simulator's mutable state. pendingSet
// is saved independently of pending: a late prefetch hit removes a
// line from the set but leaves its (now inert) slice entry behind.
//
// Older snapshots also carry L1D and L2 fields; gob skips fields the
// target struct does not have, so they still decode and those sections
// are ignored.
type simState struct {
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

	LLC []byte
}

// SaveState implements checkpoint.Stater.
func (s *Simulator) SaveState(w io.Writer) error {
	st := simState{
		Dispatch: s.dispatch, Retire: s.retire, LastID: s.lastID,
		DRAMNextFree: s.dramNextFree,
		CtrlBusyTill: s.ctrlBusyTill,
		InstrBase:    s.instrBase, CyclesBase: s.cyclesBase,
		LLCAccesses: s.llcAccesses, LLCMisses: s.llcMisses,
		Issued: s.issued, LateUseful: s.lateUseful, Dropped: s.dropped,
		AccessIdx: s.accessIdx,
		Win:       s.win, WinInstrID: s.winInstrID, WinCycles: s.winCycles,
		WinDups: s.winDups, WinDRAMReqs: s.winDRAMReqs, WinMSHRStalls: s.winMSHRStalls,
	}
	// Only the live (head-onward) regions of the FIFO queues are part of
	// the run state; the head offsets themselves are an in-memory layout
	// detail, so snapshots stay byte-compatible with earlier versions.
	st.MSHR = s.mshr[s.mshrHead:]
	for _, lr := range s.robQ[s.robHead:] {
		st.RobIDs = append(st.RobIDs, lr.id)
		st.RobRetires = append(st.RobRetires, lr.retire)
	}
	for _, p := range s.pending[s.pendHead:] {
		st.PendingLines = append(st.PendingLines, p.line)
		st.PendingFills = append(st.PendingFills, p.fill)
	}
	s.pendingSet.Range(func(line, fv uint64) bool {
		st.SetLines = append(st.SetLines, line)
		st.SetFills = append(st.SetFills, math.Float64frombits(fv))
		return true
	})
	var buf bytes.Buffer
	if err := s.llc.SaveState(&buf); err != nil {
		return err
	}
	st.LLC = buf.Bytes()
	return gob.NewEncoder(w).Encode(st)
}

// LoadState implements checkpoint.Stater; the payload is fully decoded
// and the LLC geometry validated before anything is installed.
func (s *Simulator) LoadState(r io.Reader) error {
	var st simState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("sim state: %w", err)
	}
	if len(st.RobIDs) != len(st.RobRetires) {
		return fmt.Errorf("sim state: mismatched ROB lengths")
	}
	if len(st.PendingLines) != len(st.PendingFills) || len(st.SetLines) != len(st.SetFills) {
		return fmt.Errorf("sim state: mismatched pending lengths")
	}
	for _, line := range st.SetLines {
		if line == flatmap.Reserved {
			return fmt.Errorf("sim state: reserved in-flight line")
		}
	}
	// The LLC load validates geometry and leaves the cache untouched on
	// error; it goes first so any failure aborts before the timing state
	// is replaced.
	if err := s.llc.LoadState(bytes.NewReader(st.LLC)); err != nil {
		return err
	}
	s.dispatch, s.retire, s.lastID = st.Dispatch, st.Retire, st.LastID
	s.mshr = append(s.mshr[:0], st.MSHR...)
	s.mshrHead = 0
	s.dramNextFree = st.DRAMNextFree
	s.robQ = s.robQ[:0]
	s.robHead = 0
	for i := range st.RobIDs {
		s.robQ = append(s.robQ, loadRetire{id: st.RobIDs[i], retire: st.RobRetires[i]})
	}
	s.pending = s.pending[:0]
	s.pendHead = 0
	for i := range st.PendingLines {
		s.pending = append(s.pending, pendingFill{line: st.PendingLines[i], fill: st.PendingFills[i]})
	}
	s.pendingSet = flatmap.New(len(st.SetLines))
	for i := range st.SetLines {
		s.pendingSet.Set(st.SetLines[i], math.Float64bits(st.SetFills[i]))
	}
	s.ctrlBusyTill = st.CtrlBusyTill
	s.instrBase, s.cyclesBase = st.InstrBase, st.CyclesBase
	s.llcAccesses, s.llcMisses = st.LLCAccesses, st.LLCMisses
	s.issued, s.lateUseful, s.dropped = st.Issued, st.LateUseful, st.Dropped
	s.accessIdx = st.AccessIdx
	s.win, s.winInstrID, s.winCycles = st.Win, st.WinInstrID, st.WinCycles
	s.winDups, s.winDRAMReqs, s.winMSHRStalls = st.WinDups, st.WinDRAMReqs, st.WinMSHRStalls
	return nil
}

// prefetcherSourceState mirrors the adapter's counters; the wrapped
// prefetcher's state is nested.
type prefetcherSourceState struct {
	Accesses uint64
	Issuing  uint64
	Lines    uint64
	Inner    []byte
}

// SaveState implements checkpoint.Stater; the adapted prefetcher must
// itself be checkpointable.
func (ps *prefetcherSource) SaveState(w io.Writer) error {
	st, ok := ps.p.(checkpoint.Stater)
	if !ok {
		return fmt.Errorf("sim: prefetcher %q does not support checkpointing", ps.p.Name())
	}
	var buf bytes.Buffer
	if err := st.SaveState(&buf); err != nil {
		return err
	}
	return gob.NewEncoder(w).Encode(prefetcherSourceState{
		Accesses: ps.accesses, Issuing: ps.issuing, Lines: ps.lines,
		Inner: buf.Bytes(),
	})
}

// LoadState implements checkpoint.Stater.
func (ps *prefetcherSource) LoadState(r io.Reader) error {
	st, ok := ps.p.(checkpoint.Stater)
	if !ok {
		return fmt.Errorf("sim: prefetcher %q does not support checkpointing", ps.p.Name())
	}
	var dec prefetcherSourceState
	if err := gob.NewDecoder(r).Decode(&dec); err != nil {
		return fmt.Errorf("sim source state: %w", err)
	}
	if err := st.LoadState(bytes.NewReader(dec.Inner)); err != nil {
		return err
	}
	ps.accesses, ps.issuing, ps.lines = dec.Accesses, dec.Issuing, dec.Lines
	return nil
}
