// Package domino implements the Domino temporal prefetcher
// (Bakhshalipour et al., "Domino Temporal Data Prefetcher", HPCA 2018),
// the second temporal prefetcher used as ReSemble input (paper Table
// II: 2 KB prefetch buffer, 256 B PointBuf, 128 B LogMiss, 64 B
// FetchBuf; 2.4 KB budget).
//
// Domino records the global miss sequence in a history log and finds
// the replay point by matching the last one *or two* miss addresses:
// a two-miss match is more precise and is preferred; a one-miss match
// provides fallback coverage. From the match point it replays the
// logged sequence as prefetch suggestions.
package domino

import (
	"resemble/internal/flatmap"
	"resemble/internal/mem"
	"resemble/internal/prefetch"
)

// Config parameterizes Domino.
type Config struct {
	// LogSize bounds the global miss-history log, in entries.
	LogSize int
	// IndexSize bounds the one- and two-miss index tables, in entries
	// each.
	IndexSize int
	// Degree is the number of replayed successors suggested per access.
	Degree int
}

func (c *Config) setDefaults() {
	// Domino's history is stored off-chip in main memory (the paper
	// notes this for both STMS and Domino), so the log and its indexes
	// are sized to hold the full miss working set rather than an
	// on-chip budget.
	if c.LogSize == 0 {
		c.LogSize = 1 << 16
	}
	if c.IndexSize == 0 {
		c.IndexSize = 1 << 15
	}
	if c.Degree == 0 {
		c.Degree = 2
	}
}

// Prefetcher is the Domino temporal prefetcher.
type Prefetcher struct {
	cfg Config

	// log is a ring buffer of the global miss history. It grows by
	// append until it holds LogSize entries and only then wraps, so a
	// short run never allocates (or zeroes) the full log: unwrapped,
	// len(log) == logAt; wrapped, len(log) == LogSize.
	log     []mem.Line
	logAt   int // next write position
	wrapped bool

	// idx1 maps a single miss line -> most recent log position where it
	// occurred; idx2 maps a (prev,cur) pair hash -> log position of cur.
	idx1 *flatmap.FIFO
	idx2 *flatmap.FIFO

	prev    mem.Line
	hasPrev bool

	sugBuf []prefetch.Suggestion
}

// New builds a Domino prefetcher. A zero Config selects the defaults.
func New(cfg Config) *Prefetcher {
	cfg.setDefaults()
	p := &Prefetcher{cfg: cfg}
	p.Reset()
	return p
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "domino" }

// Spatial implements prefetch.Prefetcher: Domino is temporal.
func (p *Prefetcher) Spatial() bool { return false }

// indexHint is the initial size of each index table. The tables grow
// on demand up to IndexSize; starting small keeps construction cheap
// for the short runs that never come near the bound.
const indexHint = 1024

// Reset implements prefetch.Prefetcher.
func (p *Prefetcher) Reset() {
	p.log = p.log[:0]
	p.logAt = 0
	p.wrapped = false
	if p.idx1 == nil {
		p.idx1 = flatmap.NewFIFO(p.cfg.IndexSize, indexHint)
		p.idx2 = flatmap.NewFIFO(p.cfg.IndexSize, indexHint)
	} else {
		p.idx1.Reset()
		p.idx2.Reset()
	}
	p.prev, p.hasPrev = 0, false
}

func pairKey(a, b mem.Line) uint64 {
	return mem.FoldHash(a*0x9e3779b97f4a7c15^b, 32)
}

// logValid reports whether a log position still holds live history
// (i.e. has not been overwritten since it was indexed). Because the
// indexes store absolute positions into a ring, a position is valid as
// long as it is within one log length of the write cursor; stale
// positions may replay unrelated history, which only costs accuracy —
// exactly the failure mode of the hardware design's bounded log.
func (p *Prefetcher) logValid(pos int) bool {
	return pos >= 0 && pos < len(p.log)
}

// Observe implements prefetch.Prefetcher. Domino trains on LLC misses
// (and first-use prefetch hits, which stand for misses it covered).
func (p *Prefetcher) Observe(a prefetch.AccessContext) []prefetch.Suggestion {
	p.sugBuf = p.sugBuf[:0]
	miss := !a.Hit || a.PrefetchHit
	if !miss {
		return nil
	}

	// Index the miss first: each index is probed once, and Put returns
	// the position the key held before, which is the replay point. The
	// log is appended only after predicting, so logValid and the
	// pos == logAt stop see history up to (but excluding) this miss.
	at := p.logAt
	var replayPos, found = -1, false
	prev1, ok1 := p.idx1.Put(a.Line, uint64(at))
	if p.hasPrev {
		if prev2, ok := p.idx2.Put(pairKey(p.prev, a.Line), uint64(at)); ok && p.logValid(int(prev2)) {
			replayPos, found = int(prev2), true
		}
	}
	if !found && ok1 && p.logValid(int(prev1)) {
		replayPos, found = int(prev1), true
	}
	if found {
		conf := 0.5
		if p.hasPrev {
			conf = 0.9
		}
		for d := 1; d <= p.cfg.Degree; d++ {
			pos := (replayPos + d) % p.cfg.LogSize
			if !p.logValid(pos) || pos == p.logAt {
				break
			}
			line := p.log[pos]
			if line == 0 || line == a.Line {
				continue
			}
			p.sugBuf = append(p.sugBuf, prefetch.Suggestion{Line: line, Confidence: conf})
		}
	}

	// Log the miss.
	if p.wrapped {
		p.log[at] = a.Line
	} else {
		p.log = append(p.log, a.Line)
	}
	p.logAt++
	if p.logAt == p.cfg.LogSize {
		p.logAt = 0
		p.wrapped = true
	}
	p.prev = a.Line
	p.hasPrev = true
	return p.sugBuf
}
