package isb

import (
	"testing"

	"resemble/internal/mem"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/prefetchtest"
)

func access(pc uint64, l mem.Line) prefetch.AccessContext {
	return prefetch.AccessContext{PC: pc, Addr: mem.LineAddr(l), Line: l, Hit: false}
}

// chain is an arbitrary scattered sequence with no spatial structure.
var chain = []mem.Line{0x90001, 0x5123, 0xA0777, 0x333, 0x71111, 0x2222, 0xB4444, 0x999}

func trainChain(p *Prefetcher, pc uint64, reps int) {
	for r := 0; r < reps; r++ {
		for _, l := range chain {
			p.Observe(access(pc, l))
		}
	}
}

func TestReplaysPCStream(t *testing.T) {
	p := New(Config{Degree: 2})
	trainChain(p, 0x400, 4)
	// Access a mid-chain element again: ISB should suggest the next
	// elements of the learned structural stream. (The chain wrap point
	// chain[len-1]->chain[0] fights the chain-start mapping and may
	// ping-pong — a known property of the structural remapping — so the
	// stable interior is what we assert on.)
	s := p.Observe(access(0x400, chain[2]))
	if len(s) == 0 {
		t.Fatal("no suggestions after repeated chain")
	}
	if s[0].Line != chain[3] {
		t.Errorf("first suggestion = %#x, want %#x", s[0].Line, chain[3])
	}
	if len(s) >= 2 && s[1].Line != chain[4] {
		t.Errorf("second suggestion = %#x, want %#x", s[1].Line, chain[4])
	}
}

func TestStreamsArePCLocalized(t *testing.T) {
	p := New(Config{Degree: 1})
	// PC A sees chain in order; PC B sees it reversed. Each PC must
	// replay its own order.
	for r := 0; r < 4; r++ {
		for i := range chain {
			p.Observe(access(0xA, chain[i]))
		}
	}
	rev := make([]mem.Line, len(chain))
	for i := range chain {
		rev[i] = chain[len(chain)-1-i] + 0x100000 // distinct lines for B
	}
	for r := 0; r < 4; r++ {
		for i := range rev {
			p.Observe(access(0xB, rev[i]))
		}
	}
	sA := p.Observe(access(0xA, chain[2]))
	if len(sA) == 0 || sA[0].Line != chain[3] {
		t.Errorf("PC A suggestion = %+v, want %#x", sA, chain[3])
	}
	sB := p.Observe(access(0xB, rev[2]))
	if len(sB) == 0 || sB[0].Line != rev[3] {
		t.Errorf("PC B suggestion = %+v, want %#x", sB, rev[3])
	}
}

func TestNoSuggestionForUnknownLine(t *testing.T) {
	p := New(Config{})
	trainChain(p, 0x400, 3)
	if s := p.Observe(access(0x400, 0xDEAD0000)); len(s) != 0 {
		t.Errorf("unknown line produced suggestions: %+v", s)
	}
}

func TestDoesNotTrainOnPlainHits(t *testing.T) {
	p := New(Config{Degree: 1})
	trainChain(p, 0x400, 4)
	// Hits with a contradictory order must not disturb the mapping.
	for r := 0; r < 4; r++ {
		for i := len(chain) - 1; i >= 0; i-- {
			a := access(0x400, chain[i])
			a.Hit = true
			p.Observe(a)
		}
	}
	s := p.Observe(access(0x400, chain[2]))
	if len(s) == 0 || s[0].Line != chain[3] {
		t.Errorf("mapping disturbed by hits: %+v", s)
	}
}

func TestPrefetchHitTrains(t *testing.T) {
	p := New(Config{Degree: 1})
	// First-use prefetch hits count as covered misses and must train.
	for r := 0; r < 4; r++ {
		for _, l := range chain {
			a := access(0x400, l)
			a.Hit = true
			a.PrefetchHit = true
			p.Observe(a)
		}
	}
	s := p.Observe(access(0x400, chain[2]))
	if len(s) == 0 || s[0].Line != chain[3] {
		t.Errorf("prefetch hits did not train: %+v", s)
	}
}

func TestAMCBounded(t *testing.T) {
	p := New(Config{AMCSize: 64})
	// Stream far more unique lines than the AMC can hold.
	for i := 0; i < 10000; i++ {
		p.Observe(access(0x400, mem.Line(0x1000+i*17)))
	}
	if p.ps.Len() > 64+1 || p.sp.Len() > 64+1 {
		t.Errorf("AMC exceeded bound: ps=%d sp=%d", p.ps.Len(), p.sp.Len())
	}
}

func TestReset(t *testing.T) {
	p := New(Config{})
	trainChain(p, 0x400, 4)
	p.Reset()
	if s := p.Observe(access(0x400, chain[0])); len(s) != 0 {
		t.Errorf("reset ISB still suggests: %+v", s)
	}
}

func TestNameAndTemporal(t *testing.T) {
	p := New(Config{})
	if p.Name() != "isb" || p.Spatial() {
		t.Errorf("identity wrong: %q spatial=%v", p.Name(), p.Spatial())
	}
}

func TestResetMatchesNew(t *testing.T) {
	// Default bounds: the run grows the AMC tables past their pre-size
	// (amcHint keys need 2·amcHint slots, filled to 3/4).
	prefetchtest.ResetMatchesNew(t, func() prefetchtest.Arm { return New(Config{}) },
		func(a prefetchtest.Arm) {
			if n := a.(*Prefetcher).ps.Len(); n <= 2*amcHint*3/4 {
				t.Fatalf("PS-AMC holds %d keys: the long run did not grow the table", n)
			}
		})
	// Small bounds: the tables evict.
	prefetchtest.ResetMatchesNew(t, func() prefetchtest.Arm {
		return New(Config{AMCSize: 1024, TrainingUnits: 2})
	}, nil)
}
