package domino

import (
	"testing"

	"resemble/internal/mem"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/prefetchtest"
)

func access(l mem.Line) prefetch.AccessContext {
	return prefetch.AccessContext{PC: 0x600, Addr: mem.LineAddr(l), Line: l, Hit: false}
}

var seq = []mem.Line{0x111, 0x9222, 0x333, 0xA444, 0x555, 0xB666}

func TestReplaysGlobalSequence(t *testing.T) {
	p := New(Config{Degree: 2})
	// First pass: nothing to predict, history is being logged.
	for _, l := range seq {
		p.Observe(access(l))
	}
	// Second pass: after seeing (B666, 111) the pair index should point
	// at the logged 111 and replay 9222, 333.
	var got []prefetch.Suggestion
	for _, l := range seq {
		got = p.Observe(access(l))
		if len(got) > 0 {
			break
		}
	}
	if len(got) == 0 {
		t.Fatal("no replay on second pass of a repeated sequence")
	}
}

func TestTwoMissMatchIsPrecise(t *testing.T) {
	p := New(Config{Degree: 1})
	// Two contexts ending at the same line C but continuing differently:
	// A,C,X ... B,C,Y. The pair index must disambiguate.
	a, b, c, x, y := mem.Line(0x1), mem.Line(0x2), mem.Line(0x3), mem.Line(0x10), mem.Line(0x20)
	for r := 0; r < 3; r++ {
		for _, l := range []mem.Line{a, c, x, 0x100 + mem.Line(r)} {
			p.Observe(access(l))
		}
		for _, l := range []mem.Line{b, c, y, 0x200 + mem.Line(r)} {
			p.Observe(access(l))
		}
	}
	p.Observe(access(a))
	s := p.Observe(access(c))
	if len(s) == 0 || s[0].Line != x {
		t.Errorf("after (A,C): suggestion %+v, want %#x", s, x)
	}
	p.Observe(access(b))
	s = p.Observe(access(c))
	if len(s) == 0 || s[0].Line != y {
		t.Errorf("after (B,C): suggestion %+v, want %#x", s, y)
	}
}

func TestIgnoresHits(t *testing.T) {
	p := New(Config{})
	for _, l := range seq {
		a := access(l)
		a.Hit = true // plain hits are not misses; Domino must ignore them
		if got := p.Observe(a); got != nil {
			t.Errorf("hit produced suggestions: %+v", got)
		}
	}
	// Nothing was logged, so a miss pass still predicts nothing on the
	// first repetition.
	if got := p.Observe(access(seq[0])); len(got) != 0 {
		t.Errorf("no history should mean no suggestions, got %+v", got)
	}
}

func TestIndexBounded(t *testing.T) {
	p := New(Config{IndexSize: 32, LogSize: 64})
	for i := 0; i < 5000; i++ {
		p.Observe(access(mem.Line(0x1000 + i*3)))
	}
	// The FIFO tables evict before inserting, so they never exceed the
	// bound even transiently; the grown log stops at LogSize.
	if p.idx1.Len() != 32 || p.idx2.Len() != 32 {
		t.Errorf("indexes not at bound: idx1=%d idx2=%d", p.idx1.Len(), p.idx2.Len())
	}
	if len(p.log) != 64 || !p.wrapped {
		t.Errorf("log len %d wrapped %v, want 64 and wrapped", len(p.log), p.wrapped)
	}
}

func TestLogWrapsWithoutPanic(t *testing.T) {
	p := New(Config{LogSize: 16, IndexSize: 16, Degree: 4})
	for i := 0; i < 200; i++ {
		p.Observe(access(mem.Line(i % 8))) // heavy repetition across wraps
	}
}

func TestReset(t *testing.T) {
	p := New(Config{})
	for r := 0; r < 3; r++ {
		for _, l := range seq {
			p.Observe(access(l))
		}
	}
	p.Reset()
	total := 0
	for _, l := range seq {
		total += len(p.Observe(access(l)))
	}
	if total != 0 {
		t.Errorf("reset Domino still predicted %d suggestions", total)
	}
}

func TestNameAndTemporal(t *testing.T) {
	p := New(Config{})
	if p.Name() != "domino" || p.Spatial() {
		t.Errorf("identity wrong: %q spatial=%v", p.Name(), p.Spatial())
	}
}

func TestResetMatchesNew(t *testing.T) {
	// Default bounds: the run grows both indexes past their pre-size.
	prefetchtest.ResetMatchesNew(t, func() prefetchtest.Arm { return New(Config{}) },
		func(a prefetchtest.Arm) {
			p := a.(*Prefetcher)
			if n := min(p.idx1.Len(), p.idx2.Len()); n <= 2*indexHint*3/4 {
				t.Fatalf("an index holds %d keys: the long run did not grow it", n)
			}
		})
	// A short log wraps, and small indexes evict.
	prefetchtest.ResetMatchesNew(t, func() prefetchtest.Arm {
		return New(Config{LogSize: 4096, IndexSize: 512})
	}, func(a prefetchtest.Arm) {
		if !a.(*Prefetcher).wrapped {
			t.Fatal("the long run did not wrap the log")
		}
	})
}
