package isb

import (
	"encoding/gob"
	"fmt"
	"io"

	"resemble/internal/flatmap"
	"resemble/internal/mem"
)

type psEntryState struct {
	Structural uint64
	Counter    int
}

// isbState is the gob mirror of the prefetcher's mutable state. Each
// table is stored as its keys in FIFO order plus a parallel value
// slice, so the stream depends only on the logical state.
type isbState struct {
	LastFifo       []uint64
	LastAddr       []mem.Line // parallel to LastFifo
	PSFifo         []mem.Line
	PS             []psEntryState // parallel to PSFifo
	SPFifo         []uint64
	SP             []mem.Line // parallel to SPFifo
	NextStructural uint64
}

// SaveState implements checkpoint.Stater.
func (p *Prefetcher) SaveState(w io.Writer) error {
	st := isbState{NextStructural: p.nextStructural}
	p.lastAddr.Range(func(pc, line uint64) bool {
		st.LastFifo = append(st.LastFifo, pc)
		st.LastAddr = append(st.LastAddr, line)
		return true
	})
	p.ps.Range(func(line, v uint64) bool {
		e := unpackPS(v)
		st.PSFifo = append(st.PSFifo, line)
		st.PS = append(st.PS, psEntryState{Structural: e.structural, Counter: e.counter})
		return true
	})
	p.sp.Range(func(s, line uint64) bool {
		st.SPFifo = append(st.SPFifo, s)
		st.SP = append(st.SP, line)
		return true
	})
	return gob.NewEncoder(w).Encode(st)
}

// LoadState implements checkpoint.Stater; on error the prefetcher is
// left unchanged.
func (p *Prefetcher) LoadState(r io.Reader) error {
	var st isbState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("isb state: %w", err)
	}
	if len(st.LastAddr) != len(st.LastFifo) || len(st.PS) != len(st.PSFifo) || len(st.SP) != len(st.SPFifo) {
		return fmt.Errorf("isb state: mismatched table lengths")
	}
	for _, e := range st.PS {
		if e.Counter < 0 || e.Counter > 3 || e.Structural >= 1<<62 {
			return fmt.Errorf("isb state: entry %+v does not fit a table value", e)
		}
	}
	for _, keys := range [][]uint64{st.LastFifo, st.PSFifo, st.SPFifo} {
		for _, k := range keys {
			if k == flatmap.Reserved {
				return fmt.Errorf("isb state: reserved table key")
			}
		}
	}
	lastAddr := flatmap.NewFIFO(p.cfg.TrainingUnits, p.cfg.TrainingUnits)
	for i, pc := range st.LastFifo {
		lastAddr.Put(pc, st.LastAddr[i])
	}
	ps := flatmap.NewFIFO(p.cfg.AMCSize, max(len(st.PSFifo), amcHint))
	for i, line := range st.PSFifo {
		ps.Put(line, packPS(psEntry{structural: st.PS[i].Structural, counter: st.PS[i].Counter}))
	}
	sp := flatmap.NewFIFO(p.cfg.AMCSize, max(len(st.SPFifo), amcHint))
	for i, s := range st.SPFifo {
		sp.Put(s, st.SP[i])
	}
	p.lastAddr, p.ps, p.sp = lastAddr, ps, sp
	p.nextStructural = st.NextStructural
	return nil
}
