package domino

import (
	"encoding/gob"
	"fmt"
	"io"

	"resemble/internal/flatmap"
	"resemble/internal/mem"
)

// dominoState is the gob mirror of the prefetcher's mutable state.
// The index tables are stored in FIFO order. Log holds only the
// written history: LogAt entries before the log first wraps, LogSize
// after. Snapshots from before the log grew on demand carry a
// zero-padded LogSize-entry log; LoadState trims it.
type dominoState struct {
	Log      []mem.Line
	LogAt    int
	Wrapped  bool
	Idx1Fifo []mem.Line
	Idx1Pos  []int // parallel to Idx1Fifo
	Idx2Fifo []uint64
	Idx2Pos  []int // parallel to Idx2Fifo
	Prev     mem.Line
	HasPrev  bool
}

// SaveState implements checkpoint.Stater.
func (p *Prefetcher) SaveState(w io.Writer) error {
	st := dominoState{
		Log: p.log, LogAt: p.logAt, Wrapped: p.wrapped,
		Prev: p.prev, HasPrev: p.hasPrev,
	}
	st.Idx1Fifo, st.Idx1Pos = saveIndex(p.idx1)
	st.Idx2Fifo, st.Idx2Pos = saveIndex(p.idx2)
	return gob.NewEncoder(w).Encode(st)
}

func saveIndex(f *flatmap.FIFO) (keys []uint64, pos []int) {
	f.Range(func(k, v uint64) bool {
		keys = append(keys, k)
		pos = append(pos, int(v))
		return true
	})
	return keys, pos
}

// LoadState implements checkpoint.Stater; on error the prefetcher is
// left unchanged.
func (p *Prefetcher) LoadState(r io.Reader) error {
	var st dominoState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("domino state: %w", err)
	}
	if st.LogAt < 0 || st.LogAt >= p.cfg.LogSize {
		return fmt.Errorf("domino state: log cursor %d outside [0,%d)", st.LogAt, p.cfg.LogSize)
	}
	if st.Wrapped && len(st.Log) != p.cfg.LogSize {
		return fmt.Errorf("domino state: wrapped log size %d does not match configured %d", len(st.Log), p.cfg.LogSize)
	}
	if !st.Wrapped {
		if len(st.Log) < st.LogAt || len(st.Log) > p.cfg.LogSize {
			return fmt.Errorf("domino state: log size %d inconsistent with cursor %d and configured %d", len(st.Log), st.LogAt, p.cfg.LogSize)
		}
		st.Log = st.Log[:st.LogAt]
	}
	if len(st.Idx1Pos) != len(st.Idx1Fifo) || len(st.Idx2Pos) != len(st.Idx2Fifo) {
		return fmt.Errorf("domino state: mismatched index lengths")
	}
	idx1, err := loadIndex(p.cfg.IndexSize, st.Idx1Fifo, st.Idx1Pos)
	if err != nil {
		return err
	}
	idx2, err := loadIndex(p.cfg.IndexSize, st.Idx2Fifo, st.Idx2Pos)
	if err != nil {
		return err
	}
	p.log = st.Log
	p.logAt = st.LogAt
	p.wrapped = st.Wrapped
	p.idx1, p.idx2 = idx1, idx2
	p.prev = st.Prev
	p.hasPrev = st.HasPrev
	return nil
}

func loadIndex(bound int, keys []uint64, pos []int) (*flatmap.FIFO, error) {
	f := flatmap.NewFIFO(bound, max(len(keys), indexHint))
	for i, k := range keys {
		if k == flatmap.Reserved {
			return nil, fmt.Errorf("domino state: reserved index key")
		}
		f.Put(k, uint64(pos[i]))
	}
	return f, nil
}
