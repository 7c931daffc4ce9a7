package domino

import (
	"testing"

	"resemble/internal/prefetch"
	"resemble/internal/prefetch/prefetchtest"
)

// refDomino is the reference model for the one-probe indexing: Domino
// that looks each index up with Get before logging the miss and then
// indexes it with Put. It shares the tables and the snapshot code with
// Prefetcher.
type refDomino struct{ *Prefetcher }

func (r refDomino) Observe(a prefetch.AccessContext) []prefetch.Suggestion {
	p := r.Prefetcher
	p.sugBuf = p.sugBuf[:0]
	if a.Hit && !a.PrefetchHit {
		return nil
	}
	var replayPos, found = -1, false
	if p.hasPrev {
		if pos, ok := p.idx2.Get(pairKey(p.prev, a.Line)); ok && p.logValid(int(pos)) {
			replayPos, found = int(pos), true
		}
	}
	if !found {
		if pos, ok := p.idx1.Get(a.Line); ok && p.logValid(int(pos)) {
			replayPos, found = int(pos), true
		}
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
	pos := p.logAt
	if p.wrapped {
		p.log[pos] = a.Line
	} else {
		p.log = append(p.log, a.Line)
	}
	p.logAt++
	if p.logAt == p.cfg.LogSize {
		p.logAt = 0
		p.wrapped = true
	}
	p.idx1.Put(a.Line, uint64(pos))
	if p.hasPrev {
		p.idx2.Put(pairKey(p.prev, a.Line), uint64(pos))
	}
	p.prev = a.Line
	p.hasPrev = true
	return p.sugBuf
}

// TestOneProbeMatchesGetThenPut holds the one-probe indexing to the
// Get-then-Put reference on 200k-access streams, with the default
// tables and with a log and indexes small enough that the log wraps
// and the indexes evict throughout.
func TestOneProbeMatchesGetThenPut(t *testing.T) {
	for i, cfg := range []Config{{}, {LogSize: 512, IndexSize: 256, Degree: 4}} {
		prefetchtest.Differential(t,
			func() prefetchtest.Arm { return New(cfg) },
			func() prefetchtest.Arm { return refDomino{New(cfg)} },
			prefetchtest.Accesses(int64(i+1), 200000))
	}
}
