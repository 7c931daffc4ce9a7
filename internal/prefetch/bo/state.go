package bo

import (
	"encoding/gob"
	"fmt"
	"io"

	"resemble/internal/mem"
)

// boState is the gob mirror of the prefetcher's mutable state.
type boState struct {
	RR         []mem.Line
	Scores     []int
	TestIdx    int
	Passes     int
	BestD      int
	FillQ      []mem.Line
	Confidence float64
}

// SaveState implements checkpoint.Stater.
func (p *Prefetcher) SaveState(w io.Writer) error {
	return gob.NewEncoder(w).Encode(boState{
		RR: p.rr, Scores: p.scores, TestIdx: p.testIdx, Passes: p.passes,
		// Only the live region of the head-indexed queue is state.
		BestD: p.bestD, FillQ: p.fillQ[p.fillHead:], Confidence: p.confidence,
	})
}

// LoadState implements checkpoint.Stater; on error the prefetcher is
// left unchanged. It rejects a snapshot no run could have written:
// learn indexes the offset list with the test cursor, and its
// saturation check assumes every score lies in [0, ScoreMax).
func (p *Prefetcher) LoadState(r io.Reader) error {
	var st boState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("bo state: %w", err)
	}
	if len(st.RR) != p.cfg.RRSize || len(st.Scores) != len(p.cfg.Offsets) {
		return fmt.Errorf("bo state: table sizes %d/%d do not match configured %d/%d",
			len(st.RR), len(st.Scores), p.cfg.RRSize, len(p.cfg.Offsets))
	}
	if st.TestIdx < 0 || st.TestIdx >= len(p.cfg.Offsets) {
		return fmt.Errorf("bo state: test index %d outside [0,%d)", st.TestIdx, len(p.cfg.Offsets))
	}
	// A ScoreMax below 1 commits on every trigger, leaving all-zero
	// scores.
	scoreMax := max(p.cfg.ScoreMax, 1)
	for i, s := range st.Scores {
		if s < 0 || s >= scoreMax {
			return fmt.Errorf("bo state: score %d of offset %d outside [0,%d)", s, p.cfg.Offsets[i], scoreMax)
		}
	}
	p.rr = st.RR
	p.scores = st.Scores
	p.testIdx = st.TestIdx
	p.passes = st.Passes
	p.bestD = st.BestD
	p.fillQ = st.FillQ
	p.fillHead = 0
	p.confidence = st.Confidence
	return nil
}
