// Package prefetchtest holds test helpers shared by the prefetcher
// packages: a synthetic LLC access stream, the Reset ≡ New check that
// lets a long-lived owner (a service worker) reuse a prefetcher across
// runs instead of rebuilding it, and the differential check that holds
// an optimized arm to a reference model of its earlier code.
package prefetchtest

import (
	"bytes"
	"io"
	"math/rand"
	"testing"

	"resemble/internal/mem"
	"resemble/internal/prefetch"
)

// Arm is a prefetcher whose state can be checkpointed.
type Arm interface {
	prefetch.Prefetcher
	SaveState(io.Writer) error
	LoadState(io.Reader) error
}

// Accesses returns n deterministic synthetic LLC accesses. They mix
// strided walks within pages (for the spatial arms), a fixed sequence
// of scattered lines replayed over four PCs (for the temporal arms),
// and fresh random lines that keep every table filling. About a
// quarter of the accesses hit, a third of those on a prefetched line.
func Accesses(seed int64, n int) []prefetch.AccessContext {
	rng := rand.New(rand.NewSource(seed))
	seq := make([]mem.Line, 4096)
	for i := range seq {
		seq[i] = mem.Line(rng.Int63n(1 << 28))
	}
	var page mem.Page
	offset, stride, replay := mem.LinesPerPage, 1, 0
	out := make([]prefetch.AccessContext, n)
	for i := range out {
		var line mem.Line
		var pc uint64
		switch r := rng.Intn(10); {
		case r < 4:
			pc = 0x400100
			if offset += stride; offset >= mem.LinesPerPage {
				page = mem.Page(rng.Int63n(1 << 22))
				offset, stride = 0, 1+rng.Intn(4)
			}
			line = mem.LineOf(mem.PageAddr(page)) + mem.Line(offset)
		case r < 8:
			pc = 0x400200 + uint64(replay%4)*8
			line = seq[replay%len(seq)]
			replay++
		default:
			pc = 0x400300
			line = mem.Line(rng.Int63n(1 << 28))
		}
		hit := rng.Intn(4) == 0
		out[i] = prefetch.AccessContext{
			Index: i, ID: uint64(4 * i), PC: pc,
			Addr: mem.LineAddr(line), Line: line,
			Hit: hit, PrefetchHit: hit && rng.Intn(3) == 0,
		}
	}
	return out
}

// run feeds accesses to p and returns its suggestion stream, each
// access's list closed by a zero-confidence sentinel so boundaries
// count.
func run(p prefetch.Prefetcher, accesses []prefetch.AccessContext) []prefetch.Suggestion {
	var out []prefetch.Suggestion
	for _, a := range accesses {
		out = append(out, p.Observe(a)...)
		out = append(out, prefetch.Suggestion{Line: ^mem.Line(0)})
	}
	return out
}

func state(t testing.TB, p Arm) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// ResetMatchesNew checks that a used prefetcher, once Reset, behaves
// exactly like a new one. It runs an arm over a 20k-access stream
// (grown is called on it afterwards, to assert the run reached the
// table sizes the check is meant to cover; nil skips that), resets it, and requires
// its SaveState bytes, then its suggestion stream and final SaveState
// bytes on a second stream, to equal those of a fresh arm. It repeats
// the comparison after loading the long run's snapshot into the arm
// and resetting again, the path a resume that falls back to a scratch
// run takes.
func ResetMatchesNew(t *testing.T, fresh func() Arm, grown func(Arm)) {
	t.Helper()
	long, short := Accesses(1, 20000), Accesses(2, 5000)
	ref := fresh()
	want0 := state(t, ref)
	want := run(ref, short)
	wantEnd := state(t, ref)

	used := fresh()
	run(used, long)
	if grown != nil {
		grown(used)
	}
	snap := state(t, used)
	check := func(step string, p Arm) {
		t.Helper()
		p.Reset()
		if !bytes.Equal(state(t, p), want0) {
			t.Fatalf("%s: state after Reset differs from a new arm's", step)
		}
		got := run(p, short)
		if len(got) != len(want) {
			t.Fatalf("%s: %d suggestions (with separators), fresh arm gave %d", step, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s: suggestion %d = %+v, fresh arm gave %+v", step, i, got[i], want[i])
			}
		}
		if !bytes.Equal(state(t, p), wantEnd) {
			t.Fatalf("%s: final state differs from a fresh arm's", step)
		}
	}
	check("reset after a long run", used)
	if err := used.LoadState(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	check("reset after LoadState", used)
}

// SameRun feeds accesses to arm and ref and fails unless each access
// yields the same suggestions from both and the two end with the same
// SaveState bytes.
func SameRun(t testing.TB, arm, ref Arm, accesses []prefetch.AccessContext) {
	t.Helper()
	for i, a := range accesses {
		got := arm.Observe(a)
		want := ref.Observe(a)
		if len(got) != len(want) {
			t.Fatalf("access %d (%+v): %d suggestions, reference gave %d: %+v vs %+v", i, a, len(got), len(want), got, want)
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("access %d (%+v): suggestion %d = %+v, reference gave %+v", i, a, j, got[j], want[j])
			}
		}
	}
	if !bytes.Equal(state(t, arm), state(t, ref)) {
		t.Fatal("SaveState bytes differ from the reference's")
	}
}

// Differential holds an arm to a reference model of the same
// prefetcher (typically the code an optimization replaced). Fresh
// copies of both run the first half of accesses under SameRun. The
// arm's snapshot is then loaded into a second pair, which must save it
// back unchanged and run the second half under SameRun, as must the
// uninterrupted first pair; the resumed arm must end in the state of
// the uninterrupted one.
func Differential(t *testing.T, arm, ref func() Arm, accesses []prefetch.AccessContext) {
	t.Helper()
	first, second := accesses[:len(accesses)/2], accesses[len(accesses)/2:]
	a, r := arm(), ref()
	SameRun(t, a, r, first)
	snap := state(t, a)
	la, lr := arm(), ref()
	for _, p := range []Arm{la, lr} {
		if err := p.LoadState(bytes.NewReader(snap)); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(state(t, p), snap) {
			t.Fatal("LoadState then SaveState does not reproduce the snapshot")
		}
	}
	SameRun(t, a, r, second)
	SameRun(t, la, lr, second)
	if !bytes.Equal(state(t, la), state(t, a)) {
		t.Fatal("the resumed arm ends in a different state from the uninterrupted one")
	}
}

// LoadedState is the body of an arm's FuzzLoadState. LoadState must
// not panic on data. When it accepts data, the arm's state must save to
// bytes that a new arm loads and saves back unchanged, and two arms
// loaded from data must give the same suggestions over accesses and
// end in the same state.
func LoadedState(t *testing.T, fresh func() Arm, data []byte, accesses []prefetch.AccessContext) {
	t.Helper()
	a := fresh()
	if err := a.LoadState(bytes.NewReader(data)); err != nil {
		return
	}
	saved := state(t, a)
	again := fresh()
	if err := again.LoadState(bytes.NewReader(saved)); err != nil {
		t.Fatalf("an accepted state re-saves to bytes LoadState rejects: %v", err)
	}
	if !bytes.Equal(state(t, again), saved) {
		t.Fatal("an accepted state's re-saved bytes do not reload to themselves")
	}
	b := fresh()
	if err := b.LoadState(bytes.NewReader(data)); err != nil {
		t.Fatalf("the same bytes loaded once and were rejected the second time: %v", err)
	}
	SameRun(t, a, b, accesses)
}
