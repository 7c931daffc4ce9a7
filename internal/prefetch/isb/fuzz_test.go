package isb

import (
	"bytes"
	"encoding/gob"
	"testing"

	"resemble/internal/mem"
	"resemble/internal/prefetch/prefetchtest"
)

// fuzzConfig keeps the tables small enough that the fuzzer's runs fill
// and evict them.
var fuzzConfig = Config{AMCSize: 64, StreamChunk: 4, Degree: 2, TrainingUnits: 4}

func fuzzArm() prefetchtest.Arm { return New(fuzzConfig) }

// FuzzLoadState: LoadState must never panic on arbitrary bytes; an
// accepted state must re-save to bytes that reload to themselves, and
// two prefetchers loaded from the same bytes must run identically.
func FuzzLoadState(f *testing.F) {
	p := New(fuzzConfig)
	for _, a := range prefetchtest.Accesses(3, 2000) {
		p.Observe(a)
	}
	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, st := range []isbState{
		{LastFifo: []uint64{1, 1, 2}, LastAddr: []mem.Line{5, 6, 7}, NextStructural: 9},
		{PSFifo: []mem.Line{3}, PS: []psEntryState{{Structural: 2, Counter: 4}}},
		{PSFifo: []mem.Line{3}, PS: []psEntryState{{Structural: 1 << 63, Counter: 1}}},
		{SPFifo: []uint64{^uint64(0)}, SP: []mem.Line{1}},
	} {
		buf.Reset()
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte(nil), buf.Bytes()...))
	}
	f.Add([]byte("not a snapshot"))

	accesses := prefetchtest.Accesses(4, 1000)
	f.Fuzz(func(t *testing.T, data []byte) {
		prefetchtest.LoadedState(t, fuzzArm, data, accesses)
	})
}

// TestLoadStateRejectsUnpackableEntries: a confidence counter outside
// its two bits or a structural address that does not fit beside it
// cannot be packed into a table value, so LoadState rejects it and
// leaves the prefetcher unchanged.
func TestLoadStateRejectsUnpackableEntries(t *testing.T) {
	for _, e := range []psEntryState{{Structural: 2, Counter: 4}, {Structural: 2, Counter: -1}, {Structural: 1 << 62, Counter: 0}} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(isbState{PSFifo: []mem.Line{3}, PS: []psEntryState{e}}); err != nil {
			t.Fatal(err)
		}
		p := New(fuzzConfig)
		if err := p.LoadState(&buf); err == nil {
			t.Errorf("entry %+v accepted", e)
		}
		prefetchtest.SameRun(t, p, New(fuzzConfig), prefetchtest.Accesses(5, 200))
	}
}
