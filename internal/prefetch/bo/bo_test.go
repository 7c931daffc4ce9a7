package bo

import (
	"testing"

	"resemble/internal/mem"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/prefetchtest"
)

// access builds a miss context for line l with PC 0x400.
func access(l mem.Line) prefetch.AccessContext {
	return prefetch.AccessContext{PC: 0x400, Addr: mem.LineAddr(l), Line: l, Hit: false}
}

func TestLearnsSequentialOffset(t *testing.T) {
	p := New(Config{})
	base := mem.Line(1 << 20) // page-aligned region
	// Feed a long sequential stream. With the fill-delay model, BO must
	// converge on the smallest *timely* offset: large enough to cover
	// the modelled fill latency (FillDelay trains = FillDelay lines on
	// a unit-stride stream).
	for i := 0; i < 3000; i++ {
		p.Observe(access(base + mem.Line(i)))
	}
	got := p.BestOffset()
	if got < 8 || got > 16 {
		t.Errorf("BestOffset = %d, want smallest timely offset in [8,16]", got)
	}
	// The suggestion for line X must be X+bestD.
	s := p.Observe(access(base + 5000))
	if len(s) != 1 || s[0].Line != base+5000+mem.Line(got) {
		t.Errorf("suggestion = %+v, want line %d", s, base+5000+mem.Line(got))
	}
}

func TestLearnsStrideOffset(t *testing.T) {
	p := New(Config{})
	base := mem.Line(2 << 20)
	for i := 0; i < 4000; i++ {
		p.Observe(access(base + mem.Line(i*4)))
	}
	got := p.BestOffset()
	// Must be a timely multiple of the stride: >= 4*FillDelay lines.
	if got <= 0 || got%4 != 0 {
		t.Errorf("BestOffset = %d, want a positive multiple of 4", got)
	}
	if got < 32 {
		t.Errorf("BestOffset = %d is not timely (fill delay covers %d lines)", got, 4*8)
	}
}

func TestDisablesOnRandom(t *testing.T) {
	p := New(Config{})
	// Pseudo-random widely-spread lines: no offset should score.
	l := mem.Line(12345)
	for i := 0; i < 5000; i++ {
		l = l*6364136223846793005 + 1442695040888963407
		p.Observe(access(l % (1 << 40)))
	}
	if got := p.BestOffset(); got != 0 {
		t.Errorf("BestOffset = %d, want 0 (disabled) on random stream", got)
	}
	if s := p.Observe(access(999)); s != nil {
		t.Errorf("disabled BO should not suggest, got %+v", s)
	}
}

func TestStaysInPage(t *testing.T) {
	p := New(Config{})
	base := mem.Line(3 << 20)
	for i := 0; i < 3000; i++ {
		p.Observe(access(base + mem.Line(i)))
	}
	// Trigger at the last line of a page: X+1 crosses the boundary.
	lastInPage := base + mem.Line(mem.LinesPerPage-1)
	if s := p.Observe(access(lastInPage)); s != nil {
		t.Errorf("BO must not prefetch across the page boundary, got %+v", s)
	}
}

func TestDoesNotTrainOnPlainHits(t *testing.T) {
	p := New(Config{})
	base := mem.Line(4 << 20)
	for i := 0; i < 2000; i++ {
		p.Observe(access(base + mem.Line(i)))
	}
	before := p.BestOffset()
	// A burst of hits on a conflicting stride must not retrain.
	for i := 0; i < 2000; i++ {
		a := access(base + mem.Line(i*7))
		a.Hit = true
		p.Observe(a)
	}
	if got := p.BestOffset(); got != before {
		t.Errorf("BestOffset changed on plain hits: %d -> %d", before, got)
	}
}

func TestReset(t *testing.T) {
	p := New(Config{})
	base := mem.Line(5 << 20)
	for i := 0; i < 3000; i++ {
		p.Observe(access(base + mem.Line(i*2)))
	}
	p.Reset()
	if got := p.BestOffset(); got != 1 {
		t.Errorf("BestOffset after Reset = %d, want initial 1", got)
	}
}

func TestNameAndSpatial(t *testing.T) {
	p := New(Config{})
	if p.Name() != "bo" || !p.Spatial() {
		t.Errorf("identity wrong: %q spatial=%v", p.Name(), p.Spatial())
	}
}

func TestRelearnsAfterPatternChange(t *testing.T) {
	p := New(Config{})
	base := mem.Line(6 << 20)
	for i := 0; i < 3000; i++ {
		p.Observe(access(base + mem.Line(i)))
	}
	before := p.BestOffset()
	if before <= 0 || before > 16 {
		t.Fatalf("precondition: offset %d not a small sequential offset", before)
	}
	base2 := mem.Line(7 << 20)
	for i := 0; i < 8000; i++ {
		p.Observe(access(base2 + mem.Line(i*2)))
	}
	got := p.BestOffset()
	if got <= 0 || got%2 != 0 || got == before {
		t.Errorf("BestOffset = %d (was %d), want a new positive multiple of 2", got, before)
	}
}

func TestResetMatchesNew(t *testing.T) {
	prefetchtest.ResetMatchesNew(t, func() prefetchtest.Arm { return New(Config{}) }, nil)
}
