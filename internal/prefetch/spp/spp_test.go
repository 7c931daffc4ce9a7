package spp

import (
	"bytes"
	"testing"

	"resemble/internal/mem"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/prefetchtest"
)

func access(l mem.Line) prefetch.AccessContext {
	return prefetch.AccessContext{PC: 0x500, Addr: mem.LineAddr(l), Line: l, Hit: false}
}

func TestLearnsConstantDeltaWithinPage(t *testing.T) {
	p := New(Config{})
	// Walk many pages with delta 2 so signatures repeat across pages.
	for pg := 0; pg < 50; pg++ {
		base := mem.Line((1000 + pg) * mem.LinesPerPage)
		for o := 0; o < mem.LinesPerPage; o += 2 {
			p.Observe(access(base + mem.Line(o)))
		}
	}
	// First access to a fresh page: the signature-0 pattern entry must
	// immediately suggest the +2 successor, then walk the path.
	base := mem.Line(5000 * mem.LinesPerPage)
	got := p.Observe(access(base))
	if len(got) == 0 {
		t.Fatal("no suggestions after training on delta-2 pattern")
	}
	if got[0].Line != base+2 {
		t.Errorf("first suggestion = line %d, want %d (delta 2)", got[0].Line, base+2)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Line != got[i-1].Line+2 {
			t.Errorf("walk broke delta-2 arithmetic: %+v", got)
			break
		}
	}
}

func TestLookaheadDepth(t *testing.T) {
	p := New(Config{MaxDegree: 4, PrefetchThreshold: 0.05})
	for pg := 0; pg < 80; pg++ {
		base := mem.Line((2000 + pg) * mem.LinesPerPage)
		for o := 0; o < mem.LinesPerPage; o++ {
			p.Observe(access(base + mem.Line(o)))
		}
	}
	base := mem.Line(9000 * mem.LinesPerPage)
	got := p.Observe(access(base))
	if len(got) < 2 {
		t.Fatalf("lookahead produced %d suggestions, want >= 2", len(got))
	}
	for i, s := range got {
		want := base + mem.Line(i+1)
		if s.Line != want {
			t.Errorf("suggestion %d = line %d, want %d", i, s.Line, want)
		}
	}
	// Confidence must be non-increasing along the path.
	for i := 1; i < len(got); i++ {
		if got[i].Confidence > got[i-1].Confidence+1e-9 {
			t.Errorf("confidence increased along path: %v", got)
		}
	}
}

func TestSuggestionsStayInPage(t *testing.T) {
	p := New(Config{})
	for pg := 0; pg < 50; pg++ {
		base := mem.Line((3000 + pg) * mem.LinesPerPage)
		for o := 0; o < mem.LinesPerPage; o++ {
			p.Observe(access(base + mem.Line(o)))
		}
	}
	base := mem.Line(7777 * mem.LinesPerPage)
	for o := 0; o < mem.LinesPerPage; o++ {
		for _, s := range p.Observe(access(base + mem.Line(o))) {
			if mem.PageOf(mem.LineAddr(s.Line)) != mem.PageOf(mem.LineAddr(base)) {
				t.Fatalf("suggestion %d left the page", s.Line)
			}
		}
	}
}

func TestFilterSuppressesDuplicates(t *testing.T) {
	p := New(Config{})
	for pg := 0; pg < 50; pg++ {
		base := mem.Line((4000 + pg) * mem.LinesPerPage)
		for o := 0; o < mem.LinesPerPage; o++ {
			p.Observe(access(base + mem.Line(o)))
		}
	}
	base := mem.Line(8888 * mem.LinesPerPage)
	seen := map[mem.Line]int{}
	for o := 0; o < mem.LinesPerPage; o++ {
		for _, s := range p.Observe(access(base + mem.Line(o))) {
			seen[s.Line]++
		}
	}
	for line, n := range seen {
		if n > 1 {
			t.Errorf("line %d suggested %d times despite filter", line, n)
		}
	}
}

func TestNoSuggestionsUntrained(t *testing.T) {
	p := New(Config{})
	if s := p.Observe(access(123456)); len(s) != 0 {
		t.Errorf("untrained SPP suggested %+v", s)
	}
}

func TestResetClearsState(t *testing.T) {
	p := New(Config{})
	for pg := 0; pg < 30; pg++ {
		base := mem.Line((6000 + pg) * mem.LinesPerPage)
		for o := 0; o < mem.LinesPerPage; o++ {
			p.Observe(access(base + mem.Line(o)))
		}
	}
	p.Reset()
	base := mem.Line(9999 * mem.LinesPerPage)
	total := 0
	for o := 0; o < 3; o++ {
		total += len(p.Observe(access(base + mem.Line(o))))
	}
	if total != 0 {
		t.Errorf("reset SPP still suggests (%d suggestions)", total)
	}
}

func TestNameAndSpatial(t *testing.T) {
	p := New(Config{})
	if p.Name() != "spp" || !p.Spatial() {
		t.Errorf("identity wrong: %q spatial=%v", p.Name(), p.Spatial())
	}
}

func TestOscillatingPatternTerminates(t *testing.T) {
	// Regression test: a +2/−2 oscillating delta pattern keeps the
	// lookahead walk inside the page at saturated confidence while the
	// filter rejects every duplicate suggestion. Without the step bound
	// the walk never exits. The test fails by timeout if it regresses.
	p := New(Config{MaxDegree: 8, PrefetchThreshold: 0.01})
	for pg := 0; pg < 40; pg++ {
		base := mem.Line((7000 + pg) * mem.LinesPerPage)
		for rep := 0; rep < 16; rep++ {
			p.Observe(access(base + 10))
			p.Observe(access(base + 12))
			p.Observe(access(base + 10))
			p.Observe(access(base + 12))
		}
	}
	// One more page: every Observe must return promptly.
	base := mem.Line(9500 * mem.LinesPerPage)
	for rep := 0; rep < 64; rep++ {
		p.Observe(access(base + 10))
		p.Observe(access(base + 12))
	}
}

func TestSignatureUpdate(t *testing.T) {
	// The signature must depend on delta history, stay within 12 bits,
	// and differ for different deltas.
	s1 := updateSig(0, 1)
	s2 := updateSig(0, 2)
	if s1 == s2 {
		t.Error("different deltas produced equal signatures")
	}
	if s := updateSig(0xFFF, 63); s >= 1<<12 {
		t.Errorf("signature %x exceeds 12 bits", s)
	}
	// Negative deltas must be representable too.
	if updateSig(0, -1) == updateSig(0, 1) {
		t.Error("negative delta aliases positive delta")
	}
}

func TestResetMatchesNew(t *testing.T) {
	prefetchtest.ResetMatchesNew(t, func() prefetchtest.Arm { return New(Config{}) }, nil)
}

// TestBestStaysCurrent: each pattern entry's cached strongest delta and
// confidence must equal a scan of its deltas (the first of equal counts,
// count/sigCnt clamped to 1) after every access, through counter
// halvings and entry replacement, and after a LoadState round trip.
func TestBestStaysCurrent(t *testing.T) {
	scan := func(e *ptEntry) (int, float64) {
		if len(e.deltas) == 0 || e.sigCnt == 0 {
			return 0, 0
		}
		bi := 0
		for i, d := range e.deltas {
			if d.count > e.deltas[bi].count {
				bi = i
			}
		}
		return e.deltas[bi].delta, min(1, float64(e.deltas[bi].count)/float64(e.sigCnt))
	}
	check := func(p *Prefetcher, step string) {
		t.Helper()
		for i := range p.pt {
			e := &p.pt[i]
			if d, c := scan(e); e.bestDelta != d || e.bestConf != c {
				t.Fatalf("%s: entry %d caches (%d, %v), scan gives (%d, %v)", step, i, e.bestDelta, e.bestConf, d, c)
			}
		}
	}
	for _, cfg := range []Config{{}, {PTSize: 64, CounterMax: 3}} {
		p := New(cfg)
		for i, a := range prefetchtest.Accesses(1, 20000) {
			p.Observe(a)
			if i%97 == 0 {
				check(p, "observe")
			}
		}
		check(p, "end of run")
		var buf bytes.Buffer
		if err := p.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		q := New(cfg)
		if err := q.LoadState(&buf); err != nil {
			t.Fatal(err)
		}
		check(q, "LoadState")
	}
}

// TestPTReplacementStartsEmpty: a pattern entry allocated over a
// victim keeps none of the victim's deltas, counts or cached best.
func TestPTReplacementStartsEmpty(t *testing.T) {
	p := New(Config{})
	// Signatures congruent mod PTSize share one 4-way probe window.
	for i, sig := range []uint16{1, 513, 1025, 1537} {
		e := p.ptLookup(sig, true)
		e.lru = uint64(i + 1)
		for d := 1; d <= 4; d++ {
			e.train(d, 15, 4)
		}
	}
	e := p.ptLookup(2049, true)
	if e.sig != 2049 || len(e.deltas) != 0 || e.sigCnt != 0 || e.bestDelta != 0 || e.bestConf != 0 {
		t.Fatalf("replacement entry = %+v, want a fresh entry for signature 2049", *e)
	}
}
