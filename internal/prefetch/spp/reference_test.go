package spp

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"testing"

	"resemble/internal/flatmap"
	"resemble/internal/mem"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/prefetchtest"
)

// refSPP is the reference model for the per-page bitmap filter: SPP
// with its earlier in-flight filter, a flatmap.FIFO of lines probed
// once per walk step. It shares the signature and pattern tables and
// their training with Prefetcher; the walk, SaveState and the filter
// part of LoadState are the earlier code.
type refSPP struct {
	*Prefetcher
	fifo *flatmap.FIFO
	// ownPageEvictions counts inserts that evicted a line of the page
	// being walked, so a test can show its stream covers that case.
	ownPageEvictions int
}

func newRefSPP(cfg Config) *refSPP {
	p := New(cfg)
	return &refSPP{Prefetcher: p, fifo: flatmap.NewFIFO(p.cfg.FilterSize, p.cfg.FilterSize)}
}

func (r *refSPP) Reset() {
	r.Prefetcher.Reset()
	r.fifo.Reset()
}

func (r *refSPP) Observe(a prefetch.AccessContext) []prefetch.Suggestion {
	p := r.Prefetcher
	p.clock++
	p.sugBuf = p.sugBuf[:0]
	page := mem.PageOf(a.Addr)
	offset := int(mem.LineOffsetInPage(a.Addr))

	e := p.stLookup(page)
	e.lru = p.clock
	var sig uint16
	if e.lastOffset >= 0 {
		delta := offset - e.lastOffset
		if delta != 0 {
			pt := p.ptLookup(e.sig, true)
			pt.lru = p.clock
			pt.train(delta, p.cfg.CounterMax, p.cfg.DeltasPerEntry)
			sig = updateSig(e.sig, delta)
		} else {
			sig = e.sig
		}
	} else if g := p.ghrMatch(offset); g != nil {
		sig = g.sig
	}
	e.lastOffset = offset
	e.sig = sig

	conf := 1.0
	curSig := sig
	curOffset := offset
	for steps := 0; len(p.sugBuf) < p.cfg.MaxDegree && steps < p.cfg.WalkDepth; steps++ {
		pt := p.ptLookup(curSig, false)
		if pt == nil {
			break
		}
		delta, c := pt.bestDelta, pt.bestConf
		if delta == 0 || c == 0 {
			break
		}
		conf *= c
		if conf < p.cfg.PrefetchThreshold {
			break
		}
		nextOffset := curOffset + delta
		if nextOffset < 0 || nextOffset >= mem.LinesPerPage {
			p.ghrRecord(ghrEntry{valid: true, sig: curSig, confidence: conf, lastOffset: curOffset, delta: delta})
			break
		}
		line := mem.LineOf(mem.PageAddr(page)) + mem.Line(nextOffset)
		if _, ok := r.fifo.Get(line); !ok && r.fifo.Len() == p.cfg.FilterSize {
			r.fifo.Range(func(oldest, _ uint64) bool {
				if oldest/mem.LinesPerPage == page {
					r.ownPageEvictions++
				}
				return false
			})
		}
		if _, dup := r.fifo.Put(line, 0); !dup {
			p.sugBuf = append(p.sugBuf, prefetch.Suggestion{Line: line, Confidence: conf})
		}
		curSig = updateSig(curSig, delta)
		curOffset = nextOffset
	}
	return p.sugBuf
}

func (r *refSPP) SaveState(w io.Writer) error {
	p := r.Prefetcher
	st := sppState{Clock: p.clock}
	r.fifo.Range(func(line, _ uint64) bool {
		st.FilterFifo = append(st.FilterFifo, line)
		return true
	})
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

// LoadState loads the tables through Prefetcher.LoadState and rebuilds
// the FIFO by Put, in snapshot order.
func (r *refSPP) LoadState(rd io.Reader) error {
	data, err := io.ReadAll(rd)
	if err != nil {
		return err
	}
	if err := r.Prefetcher.LoadState(bytes.NewReader(data)); err != nil {
		return err
	}
	var st sppState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return fmt.Errorf("spp state: %w", err)
	}
	r.fifo = flatmap.NewFIFO(r.cfg.FilterSize, r.cfg.FilterSize)
	for _, line := range st.FilterFifo {
		r.fifo.Put(line, 0)
	}
	return nil
}

// evictionStream strides through pages in round robin, each access one
// line further into its page. With 128 pages and the default filter,
// or 3 pages and a 10-line one, a page's oldest filtered lines age out
// while its own walk is adding lines.
func evictionStream(pages, n int) []prefetch.AccessContext {
	out := make([]prefetch.AccessContext, n)
	for i := range out {
		page := mem.Page(0x10000 + 3*(i%pages))
		line := mem.LineOf(mem.PageAddr(page)) + mem.Line((i/pages)%mem.LinesPerPage)
		out[i] = prefetch.AccessContext{Index: i, ID: uint64(4 * i), PC: 0x400100,
			Addr: mem.LineAddr(line), Line: line}
	}
	return out
}

// TestFilterMatchesFIFO holds the bitmap filter to the FIFO one on
// 200k-access streams: the shared synthetic mix, and round-robin page
// walks in which the filter evicts lines of the page being walked.
func TestFilterMatchesFIFO(t *testing.T) {
	for _, tc := range []struct {
		name     string
		cfg      Config
		accesses []prefetch.AccessContext
		ownPage  bool // the stream must evict lines of the walked page
	}{
		{"mixed", Config{}, prefetchtest.Accesses(1, 200000), false},
		{"mixed-small-filter", Config{FilterSize: 24}, prefetchtest.Accesses(2, 200000), true},
		{"own-page-evictions", Config{}, evictionStream(128, 200000), true},
		{"own-page-evictions-small-filter", Config{FilterSize: 10}, evictionStream(3, 200000), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var refs []*refSPP
			prefetchtest.Differential(t,
				func() prefetchtest.Arm { return New(tc.cfg) },
				func() prefetchtest.Arm { r := newRefSPP(tc.cfg); refs = append(refs, r); return r },
				tc.accesses)
			if tc.ownPage && refs[0].ownPageEvictions == 0 {
				t.Fatal("the stream never evicted a line of the page being walked")
			}
		})
	}
}

// FuzzLoadState: LoadState must never panic on arbitrary bytes, and a
// state it accepts must run like the FIFO-filter reference loaded from
// the same bytes. Seeds include a filter list with repeated lines and
// one longer than the filter, which LoadState must fill FIFO-style.
func FuzzLoadState(f *testing.F) {
	cfg := Config{STSize: 8, PTSize: 16, GHRSize: 2, FilterSize: 32}
	encode := func(st sppState) []byte {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			f.Fatal(err)
		}
		if err := New(cfg).LoadState(bytes.NewReader(buf.Bytes())); err != nil {
			f.Fatalf("seed rejected: %v", err)
		}
		return buf.Bytes()
	}
	p := New(cfg)
	for _, a := range prefetchtest.Accesses(3, 5000) {
		p.Observe(a)
	}
	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	var st sppState
	if err := gob.NewDecoder(bytes.NewReader(buf.Bytes())).Decode(&st); err != nil {
		f.Fatal(err)
	}
	base := mem.LineOf(mem.PageAddr(0x4000))
	st.FilterFifo = []mem.Line{base + 1, base + 2, base + 1, base + 70, base + 2, base + 3}
	f.Add(encode(st))
	st.FilterFifo = nil
	for i := 0; i < 3*cfg.FilterSize; i++ {
		st.FilterFifo = append(st.FilterFifo, base+mem.Line(i*i%150))
	}
	f.Add(encode(st))
	f.Add([]byte("not a snapshot"))

	accesses := prefetchtest.Accesses(4, 1000)
	f.Fuzz(func(t *testing.T, data []byte) {
		p := New(cfg)
		if err := p.LoadState(bytes.NewReader(data)); err != nil {
			return
		}
		ref := newRefSPP(cfg)
		if err := ref.LoadState(bytes.NewReader(data)); err != nil {
			t.Fatalf("the reference rejects a state LoadState accepted: %v", err)
		}
		prefetchtest.SameRun(t, p, ref, accesses)
	})
}
