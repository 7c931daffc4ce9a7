package bo

import (
	"bytes"
	"encoding/gob"
	"testing"

	"resemble/internal/mem"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/prefetchtest"
)

// refBO is the reference model for the running-best saturation check:
// BO whose learn rescans every offset score on every trigger. It
// shares the tables, commitRound and the snapshot code with
// Prefetcher.
type refBO struct{ *Prefetcher }

func (r refBO) Observe(a prefetch.AccessContext) []prefetch.Suggestion {
	p := r.Prefetcher
	if !a.Hit || a.PrefetchHit {
		r.learn(a.Line)
		if p.fillHead > 0 && p.fillHead >= len(p.fillQ)-p.fillHead {
			n := copy(p.fillQ, p.fillQ[p.fillHead:])
			p.fillQ = p.fillQ[:n]
			p.fillHead = 0
		}
		p.fillQ = append(p.fillQ, a.Line)
		if len(p.fillQ)-p.fillHead > p.cfg.FillDelay {
			p.rrInsert(p.fillQ[p.fillHead])
			p.fillHead++
		}
	}
	if p.bestD == 0 {
		return nil
	}
	cand := int64(a.Line) + int64(p.bestD)
	if cand < 0 {
		return nil
	}
	line := mem.Line(cand)
	if !mem.SamePage(mem.LineAddr(line), a.Addr) {
		return nil
	}
	p.out[0] = prefetch.Suggestion{Line: line, Confidence: p.confidence}
	p.sugBuf = p.out[:1]
	return p.sugBuf
}

func (r refBO) learn(line mem.Line) {
	p := r.Prefetcher
	d := p.cfg.Offsets[p.testIdx]
	base := int64(line) - int64(d)
	if base >= 0 && p.rrHit(mem.Line(base)) {
		p.scores[p.testIdx]++
	}
	p.testIdx++
	endPhase := false
	if p.testIdx == len(p.cfg.Offsets) {
		p.testIdx = 0
		p.passes++
		if p.passes >= p.cfg.RoundMax {
			endPhase = true
		}
	}
	if best := maxScore(p.scores); best >= p.cfg.ScoreMax {
		endPhase = true
	}
	if endPhase {
		p.commitRound()
	}
}

func maxScore(s []int) int {
	m := 0
	for _, v := range s {
		if v > m {
			m = v
		}
	}
	return m
}

// TestRunningBestMatchesRescan holds the running-best check to the
// full rescan on 200k-access streams, under the default configuration
// and under ones where rounds end early (a low ScoreMax) or commit on
// every trigger.
func TestRunningBestMatchesRescan(t *testing.T) {
	for i, cfg := range []Config{{}, {ScoreMax: 3, RoundMax: 4}, {ScoreMax: -1}} {
		prefetchtest.Differential(t,
			func() prefetchtest.Arm { return New(cfg) },
			func() prefetchtest.Arm { return refBO{New(cfg)} },
			prefetchtest.Accesses(int64(i+1), 200000))
	}
}

// fuzzConfig is small so the fuzzer's mutations reach every field.
var fuzzConfig = Config{RRSize: 16, Offsets: []int{1, 2, 3, -1}, ScoreMax: 5, RoundMax: 3}

// snapshots returns a valid fuzzConfig snapshot and invalid variants
// of it: a score at ScoreMax, a negative score, a short score list and
// an out-of-range test index.
func snapshots(t testing.TB) (valid []byte, invalid [][]byte) {
	p := New(fuzzConfig)
	for _, a := range prefetchtest.Accesses(3, 5000) {
		p.Observe(a)
	}
	st := boState{RR: p.rr, Scores: []int{0, 4, 1, 2}, TestIdx: 1, Passes: 2,
		BestD: 2, FillQ: []mem.Line{5, 6, 7}, Confidence: 0.4}
	encode := func(mutate func(*boState)) []byte {
		st := st
		st.Scores = append([]int(nil), st.Scores...)
		mutate(&st)
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	valid = encode(func(*boState) {})
	for _, mutate := range []func(*boState){
		func(st *boState) { st.Scores[2] = 5 },
		func(st *boState) { st.Scores[2] = -1 },
		func(st *boState) { st.Scores = st.Scores[:3] },
		func(st *boState) { st.TestIdx = 4 },
	} {
		invalid = append(invalid, encode(mutate))
	}
	return valid, invalid
}

func TestLoadStateRejectsImpossibleState(t *testing.T) {
	valid, invalid := snapshots(t)
	if err := New(fuzzConfig).LoadState(bytes.NewReader(valid)); err != nil {
		t.Fatalf("valid snapshot rejected: %v", err)
	}
	for i, data := range invalid {
		p := New(fuzzConfig)
		want := prefetchtest.Accesses(5, 100)
		if err := p.LoadState(bytes.NewReader(data)); err == nil {
			t.Errorf("invalid snapshot %d accepted", i)
		}
		// A rejected snapshot leaves the prefetcher as it was.
		prefetchtest.SameRun(t, p, New(fuzzConfig), want)
	}
}

// FuzzLoadState: LoadState must never panic on arbitrary bytes, and a
// state it accepts must run like the rescanning reference loaded from
// the same bytes.
func FuzzLoadState(f *testing.F) {
	valid, invalid := snapshots(f)
	f.Add(valid)
	for _, data := range invalid {
		f.Add(data)
	}
	f.Add([]byte("not a snapshot"))

	accesses := prefetchtest.Accesses(4, 1000)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := New(fuzzConfig)
		if err := p.LoadState(bytes.NewReader(data)); err != nil {
			return
		}
		ref := refBO{New(fuzzConfig)}
		if err := ref.LoadState(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		prefetchtest.SameRun(t, p, ref, accesses)
	})
}
