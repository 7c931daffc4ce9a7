// Package spp implements the Signature Path Prefetcher (Kim et al.,
// "Path Confidence based Lookahead Prefetching", MICRO 2016), the
// second spatial prefetcher used as ReSemble input (paper Table II:
// 256-entry ST, 512-entry PT, 1024-entry prefetch filter, 8-entry GHR).
//
// SPP compresses the recent in-page delta history into a signature,
// looks the signature up in a pattern table to find likely next deltas,
// and speculatively walks the signature path — multiplying per-step
// confidences — to issue lookahead prefetches until confidence drops
// below a threshold. A global history register carries a walk across a
// page boundary.
package spp

import (
	"resemble/internal/mem"
	"resemble/internal/prefetch"
)

// Config parameterizes SPP.
type Config struct {
	// STSize is the number of signature-table entries (pages tracked).
	STSize int
	// PTSize is the number of pattern-table entries (signatures tracked).
	PTSize int
	// DeltasPerEntry bounds distinct deltas remembered per signature.
	DeltasPerEntry int
	// FilterSize bounds the in-flight prefetch filter.
	FilterSize int
	// GHRSize is the global history register depth for page-boundary
	// crossings.
	GHRSize int
	// PrefetchThreshold is the minimum path confidence to keep issuing
	// lookahead prefetches (default 0.25).
	PrefetchThreshold float64
	// MaxDegree bounds NEW suggestions per access (default 4). Keep this
	// in sync with the consumer's issue degree: the prefetch filter
	// marks every returned line as in flight, so suggestions the
	// consumer drops would never be re-suggested.
	MaxDegree int
	// WalkDepth bounds the lookahead walk in steps (default 16). Depth
	// beyond MaxDegree matters because already-issued lines are
	// filtered: in steady state the walk runs WalkDepth lines ahead of
	// the trigger and returns ~1 new line per access at that distance,
	// which is what makes SPP's prefetches timely.
	WalkDepth int
	// CounterMax saturates the PT counters (default 15).
	CounterMax int
}

func (c *Config) setDefaults() {
	if c.STSize == 0 {
		c.STSize = 256
	}
	if c.PTSize == 0 {
		c.PTSize = 512
	}
	if c.DeltasPerEntry == 0 {
		c.DeltasPerEntry = 4
	}
	if c.FilterSize == 0 {
		c.FilterSize = 1024
	}
	if c.GHRSize == 0 {
		c.GHRSize = 8
	}
	if c.PrefetchThreshold == 0 {
		c.PrefetchThreshold = 0.25
	}
	if c.MaxDegree == 0 {
		c.MaxDegree = 4
	}
	if c.WalkDepth == 0 {
		c.WalkDepth = 16
	}
	if c.CounterMax == 0 {
		c.CounterMax = 15
	}
}

const sigBits = 12

// signature update: shift by 3, xor the 7-bit two's-complement delta.
func updateSig(sig uint16, delta int) uint16 {
	d := uint16(delta) & 0x7f
	return ((sig << 3) ^ d) & ((1 << sigBits) - 1)
}

type stEntry struct {
	page       mem.Page
	valid      bool
	lastOffset int // line offset within page, 0..63
	sig        uint16
	lru        uint64
}

type ptDelta struct {
	delta int
	count int
}

type ptEntry struct {
	sig    uint16
	valid  bool
	sigCnt int
	deltas []ptDelta
	lru    uint64
	// bestDelta and bestConf cache the strongest delta and its
	// confidence (see refreshBest), kept current wherever deltas or
	// sigCnt change, so the lookahead walk reads them per step.
	bestDelta int
	bestConf  float64
}

type ghrEntry struct {
	valid      bool
	sig        uint16
	confidence float64
	lastOffset int
	delta      int
}

// Prefetcher is the Signature Path Prefetcher.
type Prefetcher struct {
	cfg   Config
	st    []stEntry
	pt    []ptEntry
	ghr   []ghrEntry
	clock uint64

	// filter holds the recently issued lines.
	filter *filter

	sugBuf []prefetch.Suggestion
}

// New builds an SPP prefetcher. A zero Config selects the defaults.
func New(cfg Config) *Prefetcher {
	cfg.setDefaults()
	p := &Prefetcher{cfg: cfg}
	p.Reset()
	return p
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "spp" }

// Spatial implements prefetch.Prefetcher: SPP predicts offsets within a
// spatial region (it can cross a page boundary via the GHR, but its
// output stays in the neighbourhood of the trigger).
func (p *Prefetcher) Spatial() bool { return true }

// Reset implements prefetch.Prefetcher. The tables are cleared in
// place (pattern entries keep their delta buffers), so a reused
// prefetcher does not allocate.
func (p *Prefetcher) Reset() {
	if p.st == nil {
		p.st = make([]stEntry, p.cfg.STSize)
		p.pt = make([]ptEntry, p.cfg.PTSize)
		p.ghr = make([]ghrEntry, p.cfg.GHRSize)
		p.filter = newFilter(p.cfg.FilterSize)
	} else {
		clear(p.st)
		for i := range p.pt {
			p.pt[i] = ptEntry{deltas: p.pt[i].deltas[:0]}
		}
		clear(p.ghr)
		p.filter.reset()
	}
	p.clock = 0
}

// wrapNext steps a probe index around a table of n entries: the
// lookups walk their 4-way windows with it instead of dividing per way.
func wrapNext(i, n int) int {
	if i++; i == n {
		return 0
	}
	return i
}

// stLookup finds the signature-table entry for a page, allocating over
// the LRU way of a 4-way probe window on miss.
func (p *Prefetcher) stLookup(page mem.Page) *stEntry {
	i := int(mem.FoldHash(page, 16)) % len(p.st)
	var victim *stEntry
	for w := 0; w < 4; w, i = w+1, wrapNext(i, len(p.st)) {
		e := &p.st[i]
		if e.valid && e.page == page {
			return e
		}
		if !e.valid {
			if victim == nil || victim.valid {
				victim = e
			}
		} else if victim == nil || (victim.valid && e.lru < victim.lru) {
			victim = e
		}
	}
	*victim = stEntry{page: page, valid: true, lastOffset: -1}
	return victim
}

// ptLookup finds the pattern-table entry for a signature; when alloc is
// true a miss allocates over the LRU way, otherwise it returns nil.
func (p *Prefetcher) ptLookup(sig uint16, alloc bool) *ptEntry {
	i := int(sig) % len(p.pt)
	var victim *ptEntry
	for w := 0; w < 4; w, i = w+1, wrapNext(i, len(p.pt)) {
		e := &p.pt[i]
		if e.valid && e.sig == sig {
			return e
		}
		if !e.valid {
			if victim == nil || victim.valid {
				victim = e
			}
		} else if victim == nil || (victim.valid && e.lru < victim.lru) {
			victim = e
		}
	}
	if !alloc {
		return nil
	}
	*victim = ptEntry{sig: sig, valid: true, deltas: victim.deltas[:0]}
	return victim
}

func (e *ptEntry) train(delta, counterMax, maxDeltas int) {
	found := false
	for i := range e.deltas {
		if e.deltas[i].delta == delta {
			e.deltas[i].count++
			found = true
			break
		}
	}
	if !found {
		if len(e.deltas) < maxDeltas {
			e.deltas = append(e.deltas, ptDelta{delta: delta, count: 1})
		} else {
			// Replace the weakest delta.
			wi := 0
			for i := range e.deltas {
				if e.deltas[i].count < e.deltas[wi].count {
					wi = i
				}
			}
			e.deltas[wi] = ptDelta{delta: delta, count: 1}
		}
	}
	e.sigCnt++
	if e.sigCnt > counterMax {
		// Saturate: halve every counter together to age old patterns out
		// while keeping count <= sigCnt, so confidences stay in [0,1].
		e.sigCnt = (e.sigCnt + 1) / 2
		for i := range e.deltas {
			e.deltas[i].count = e.deltas[i].count / 2
		}
	}
	e.refreshBest()
}

// refreshBest recomputes the strongest delta (the first of equal
// counts) and its confidence in [0,1].
func (e *ptEntry) refreshBest() {
	if len(e.deltas) == 0 || e.sigCnt == 0 {
		e.bestDelta, e.bestConf = 0, 0
		return
	}
	bi := 0
	for i := range e.deltas {
		if e.deltas[i].count > e.deltas[bi].count {
			bi = i
		}
	}
	c := float64(e.deltas[bi].count) / float64(e.sigCnt)
	if c > 1 {
		c = 1
	}
	e.bestDelta, e.bestConf = e.deltas[bi].delta, c
}

// Observe implements prefetch.Prefetcher.
func (p *Prefetcher) Observe(a prefetch.AccessContext) []prefetch.Suggestion {
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
			// Train the pattern table with the observed transition.
			pt := p.ptLookup(e.sig, true)
			pt.lru = p.clock
			pt.train(delta, p.cfg.CounterMax, p.cfg.DeltasPerEntry)
			sig = updateSig(e.sig, delta)
		} else {
			sig = e.sig
		}
	} else {
		// First access to this page: try to resume a cross-page walk
		// recorded in the GHR.
		if g := p.ghrMatch(offset); g != nil {
			sig = g.sig
		} else {
			sig = 0
		}
	}
	e.lastOffset = offset
	e.sig = sig

	// Lookahead walk down the signature path. The walk is step-bounded
	// by WalkDepth, which (a) sets the steady-state prefetch distance
	// (filtered duplicates are skipped until the frontier is reached)
	// and (b) guarantees termination when an oscillating delta pattern
	// cycles within the page at saturated confidence. The walk stays in
	// the trigger's page, so one read of the page's filter bitmap, at
	// the first step that reaches the filter, answers every step's
	// membership test.
	var filtered uint64
	loaded := false
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
			// Page boundary: record in the GHR so the walk can resume
			// when the neighbouring page is touched.
			p.ghrRecord(ghrEntry{valid: true, sig: curSig, confidence: conf, lastOffset: curOffset, delta: delta})
			break
		}
		line := mem.LineOf(mem.PageAddr(page)) + mem.Line(nextOffset)
		// A line already in the filter is in flight: not suggested again.
		if !loaded {
			filtered, loaded = p.filter.bits(page), true
		}
		if filtered&lineBit(line) == 0 {
			filtered = p.filter.add(line, filtered)
			p.sugBuf = append(p.sugBuf, prefetch.Suggestion{Line: line, Confidence: conf})
		}
		curSig = updateSig(curSig, delta)
		curOffset = nextOffset
	}
	return p.sugBuf
}

func (p *Prefetcher) ghrRecord(g ghrEntry) {
	// Replace the lowest-confidence slot.
	wi := 0
	for i := range p.ghr {
		if !p.ghr[i].valid {
			wi = i
			break
		}
		if p.ghr[i].confidence < p.ghr[wi].confidence {
			wi = i
		}
	}
	p.ghr[wi] = g
}

// ghrMatch looks for a GHR entry whose boundary-crossing walk lands on
// the given offset in a fresh page.
func (p *Prefetcher) ghrMatch(offset int) *ghrEntry {
	for i := range p.ghr {
		g := &p.ghr[i]
		if !g.valid {
			continue
		}
		// The recorded walk continued past the boundary: its projected
		// offset in the next page is lastOffset+delta-LinesPerPage (or
		// +LinesPerPage when walking backwards).
		proj := g.lastOffset + g.delta
		if proj >= mem.LinesPerPage {
			proj -= mem.LinesPerPage
		} else if proj < 0 {
			proj += mem.LinesPerPage
		}
		if proj == offset {
			g.valid = false
			return g
		}
	}
	return nil
}
