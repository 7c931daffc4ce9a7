package spp

import (
	"encoding/gob"
	"fmt"
	"io"

	"resemble/internal/flatmap"
	"resemble/internal/mem"
)

// Gob mirrors of the unexported table entries.
type stEntryState struct {
	Page       mem.Page
	Valid      bool
	LastOffset int
	Sig        uint16
	LRU        uint64
}

type ptDeltaState struct {
	Delta int
	Count int
}

type ptEntryState struct {
	Sig    uint16
	Valid  bool
	SigCnt int
	Deltas []ptDeltaState
	LRU    uint64
}

type ghrEntryState struct {
	Valid      bool
	Sig        uint16
	Confidence float64
	LastOffset int
	Delta      int
}

type sppState struct {
	ST         []stEntryState
	PT         []ptEntryState
	GHR        []ghrEntryState
	Clock      uint64
	FilterFifo []mem.Line
}

// SaveState implements checkpoint.Stater.
func (p *Prefetcher) SaveState(w io.Writer) error {
	st := sppState{Clock: p.clock, FilterFifo: p.filter.order.Live()}
	for _, e := range p.st {
		st.ST = append(st.ST, stEntryState{Page: e.page, Valid: e.valid, LastOffset: e.lastOffset, Sig: e.sig, LRU: e.lru})
	}
	for _, e := range p.pt {
		pe := ptEntryState{Sig: e.sig, Valid: e.valid, SigCnt: e.sigCnt, LRU: e.lru}
		for _, d := range e.deltas {
			pe.Deltas = append(pe.Deltas, ptDeltaState{Delta: d.delta, Count: d.count})
		}
		st.PT = append(st.PT, pe)
	}
	for _, g := range p.ghr {
		st.GHR = append(st.GHR, ghrEntryState{Valid: g.valid, Sig: g.sig, Confidence: g.confidence, LastOffset: g.lastOffset, Delta: g.delta})
	}
	return gob.NewEncoder(w).Encode(st)
}

// LoadState implements checkpoint.Stater; on error the prefetcher is
// left unchanged. The in-flight filter is rebuilt from its FIFO as a
// bounded FIFO fills: a repeated line keeps its first place, and a
// list longer than FilterSize keeps its newest lines.
func (p *Prefetcher) LoadState(r io.Reader) error {
	var st sppState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("spp state: %w", err)
	}
	filter := newFilter(p.cfg.FilterSize)
	for _, line := range st.FilterFifo {
		if line == flatmap.Reserved {
			return fmt.Errorf("spp state: reserved filter line")
		}
		filter.insert(line)
	}
	if len(st.ST) != p.cfg.STSize || len(st.PT) != p.cfg.PTSize || len(st.GHR) != p.cfg.GHRSize {
		return fmt.Errorf("spp state: table sizes %d/%d/%d do not match configured %d/%d/%d",
			len(st.ST), len(st.PT), len(st.GHR), p.cfg.STSize, p.cfg.PTSize, p.cfg.GHRSize)
	}
	for i, e := range st.ST {
		p.st[i] = stEntry{page: e.Page, valid: e.Valid, lastOffset: e.LastOffset, sig: e.Sig, lru: e.LRU}
	}
	for i, e := range st.PT {
		pe := ptEntry{sig: e.Sig, valid: e.Valid, sigCnt: e.SigCnt, lru: e.LRU}
		for _, d := range e.Deltas {
			pe.deltas = append(pe.deltas, ptDelta{delta: d.Delta, count: d.Count})
		}
		pe.refreshBest()
		p.pt[i] = pe
	}
	for i, g := range st.GHR {
		p.ghr[i] = ghrEntry{valid: g.Valid, sig: g.Sig, confidence: g.Confidence, lastOffset: g.LastOffset, delta: g.Delta}
	}
	p.clock = st.Clock
	p.filter = filter
	return nil
}
