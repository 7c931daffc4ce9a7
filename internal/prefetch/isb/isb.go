// Package isb implements the Irregular Stream Buffer (Jain & Lin,
// "Linearizing Irregular Memory Accesses for Improved Correlated
// Prefetching", MICRO 2013), one of the two temporal prefetchers used
// as ReSemble input (paper Table II: 2K entries each for the PS-AMC and
// SP-AMC, 8 KB budget).
//
// ISB linearizes each PC-localized miss stream into a contiguous
// *structural* address space: consecutive correlated physical lines get
// consecutive structural addresses. Two address-mapping caches keep the
// translation — PS (physical→structural) and SP (structural→physical).
// Prediction is then trivial stream-buffer behaviour in structural
// space: on an access to physical line X at structural address s,
// prefetch the physical lines mapped at s+1 .. s+degree.
package isb

import (
	"resemble/internal/flatmap"
	"resemble/internal/mem"
	"resemble/internal/prefetch"
)

// Config parameterizes ISB.
type Config struct {
	// AMCSize bounds both address-mapping caches, in entries.
	AMCSize int
	// StreamChunk is the number of structural slots allocated to a PC
	// stream at a time (the original uses 16-line structural pages).
	StreamChunk int
	// Degree is the number of structural successors prefetched.
	Degree int
	// TrainingUnits bounds the per-PC last-address table.
	TrainingUnits int
}

func (c *Config) setDefaults() {
	if c.AMCSize == 0 {
		// The hardware design caches 2K entries on chip but backs the
		// full mapping off-chip in the page table; we model the combined
		// capacity (see DESIGN.md on metadata scaling).
		c.AMCSize = 1 << 15
	}
	if c.StreamChunk == 0 {
		c.StreamChunk = 16
	}
	if c.Degree == 0 {
		c.Degree = 2
	}
	if c.TrainingUnits == 0 {
		c.TrainingUnits = 1024
	}
}

type psEntry struct {
	structural uint64
	counter    int // confidence counter, saturating at 3
}

// packPS encodes a psEntry for the flat PS-AMC table. The counter
// saturates at 3, so two bits hold it; structural addresses stay far
// below 2^62 (they grow by StreamChunk per new stream chunk).
func packPS(e psEntry) uint64 { return e.structural<<2 | uint64(e.counter) }

func unpackPS(v uint64) psEntry {
	return psEntry{structural: v >> 2, counter: int(v & 3)}
}

// Prefetcher is the Irregular Stream Buffer. Its three tables are
// FIFO-bounded flat tables (flatmap.FIFO).
type Prefetcher struct {
	cfg Config

	// lastAddr tracks the previous physical line per PC (training unit).
	lastAddr *flatmap.FIFO
	// ps maps physical line -> packed psEntry (structural address and
	// confidence counter).
	ps *flatmap.FIFO
	// sp maps structural address -> physical line.
	sp *flatmap.FIFO
	// nextStructural is the structural-space allocation cursor.
	nextStructural uint64

	sugBuf []prefetch.Suggestion
}

// New builds an ISB prefetcher. A zero Config selects the defaults.
func New(cfg Config) *Prefetcher {
	cfg.setDefaults()
	p := &Prefetcher{cfg: cfg}
	p.Reset()
	return p
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "isb" }

// Spatial implements prefetch.Prefetcher: ISB predicts over the whole
// address space (temporal).
func (p *Prefetcher) Spatial() bool { return false }

// amcHint caps the AMC table pre-size. Pre-sizing skips the many small
// growth steps that otherwise spread table moves across the training
// hot path, but sizing for the full 32K capacity makes every Reset
// clear megabytes of table — worse than the growth it avoids for
// short-lived instances. 4K keeps creation cheap and covers the
// working set of typical runs.
const amcHint = 4096

// Reset implements prefetch.Prefetcher.
func (p *Prefetcher) Reset() {
	if p.ps == nil {
		p.lastAddr = flatmap.NewFIFO(p.cfg.TrainingUnits, p.cfg.TrainingUnits)
		p.ps = flatmap.NewFIFO(p.cfg.AMCSize, amcHint)
		p.sp = flatmap.NewFIFO(p.cfg.AMCSize, amcHint)
	} else {
		p.lastAddr.Reset()
		p.ps.Reset()
		p.sp.Reset()
	}
	// Start allocation at one chunk in, keeping structural 0 unused.
	p.nextStructural = uint64(p.cfg.StreamChunk)
}

// allocChunk reserves a fresh structural chunk and returns its base.
func (p *Prefetcher) allocChunk() uint64 {
	base := p.nextStructural
	p.nextStructural += uint64(p.cfg.StreamChunk)
	return base
}

// train links prev -> cur in structural space for one PC stream. It
// returns cur's mapping as left in the PS-AMC (training always leaves
// cur mapped), letting Observe's prediction step skip the re-lookup.
func (p *Prefetcher) train(prev, cur mem.Line) psEntry {
	pv, prevMapped := p.ps.Get(prev)
	cv, curMapped := p.ps.Get(cur)

	switch {
	case prevMapped && curMapped:
		pe, ce := unpackPS(pv), unpackPS(cv)
		if ce.structural == pe.structural+1 {
			// Mapping confirmed: strengthen. cur is present, so its
			// FIFO position is unchanged.
			if ce.counter < 3 {
				ce.counter++
				p.ps.Put(cur, packPS(ce))
			}
			return ce
		}
		// Divergent correlation: weaken; remap when confidence is gone.
		if ce.counter > 0 {
			ce.counter--
			p.ps.Put(cur, packPS(ce))
			return ce
		}
		return p.remap(pe, cur)
	case prevMapped:
		return p.remap(unpackPS(pv), cur)
	default:
		// prev unmapped: start a fresh stream chunk with prev at its
		// base, then place cur right after it.
		base := p.allocChunk()
		p.ps.Put(prev, packPS(psEntry{structural: base, counter: 1}))
		p.sp.Put(base, prev)
		e := psEntry{structural: base + 1, counter: 1}
		p.ps.Put(cur, packPS(e))
		p.sp.Put(base+1, cur)
		return e
	}
}

// remap places cur at pe.structural+1, allocating a new chunk when the
// successor slot would cross the chunk boundary.
func (p *Prefetcher) remap(pe psEntry, cur mem.Line) psEntry {
	s := pe.structural + 1
	chunk := uint64(p.cfg.StreamChunk)
	if s/chunk != pe.structural/chunk {
		s = p.allocChunk()
	}
	e := psEntry{structural: s, counter: 1}
	p.ps.Put(cur, packPS(e))
	p.sp.Put(s, cur)
	return e
}

// Observe implements prefetch.Prefetcher. ISB trains on LLC misses and
// first-use prefetch hits of its PC-localized streams.
func (p *Prefetcher) Observe(a prefetch.AccessContext) []prefetch.Suggestion {
	p.sugBuf = p.sugBuf[:0]
	var e psEntry
	var mapped bool
	if !a.Hit || a.PrefetchHit {
		prev, known := p.lastAddr.Put(a.PC, a.Line)
		if known && prev != a.Line {
			e, mapped = p.train(prev, a.Line), true
		} else {
			var v uint64
			v, mapped = p.ps.Get(a.Line)
			e = unpackPS(v)
		}
	} else {
		var v uint64
		v, mapped = p.ps.Get(a.Line)
		e = unpackPS(v)
	}
	if !mapped {
		return nil
	}
	// Predict: follow the structural stream.
	conf := float64(e.counter+1) / 4
	for d := uint64(1); d <= uint64(p.cfg.Degree); d++ {
		phys, ok := p.sp.Get(e.structural + d)
		if !ok {
			break
		}
		p.sugBuf = append(p.sugBuf, prefetch.Suggestion{Line: phys, Confidence: conf})
	}
	return p.sugBuf
}
