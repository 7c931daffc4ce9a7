package domino

import (
	"bytes"
	"encoding/gob"
	"testing"

	"resemble/internal/mem"
	"resemble/internal/prefetch/prefetchtest"
)

// fuzzConfig keeps the log and indexes small enough that the fuzzer's
// runs wrap and evict them.
var fuzzConfig = Config{LogSize: 64, IndexSize: 16, Degree: 4}

func fuzzArm() prefetchtest.Arm { return New(fuzzConfig) }

// FuzzLoadState: LoadState must never panic on arbitrary bytes; an
// accepted state must re-save to bytes that reload to themselves, and
// two prefetchers loaded from the same bytes must run identically.
func FuzzLoadState(f *testing.F) {
	for _, n := range []int{40, 2000} { // unwrapped and wrapped logs
		p := New(fuzzConfig)
		for _, a := range prefetchtest.Accesses(3, n) {
			p.Observe(a)
		}
		var buf bytes.Buffer
		if err := p.SaveState(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	for _, st := range []dominoState{
		{Log: make([]mem.Line, 64), LogAt: 5},
		{Log: []mem.Line{1, 2, 3}, LogAt: 3, Idx1Fifo: []mem.Line{2, 2}, Idx1Pos: []int{-4, 70}},
		{Log: make([]mem.Line, 64), LogAt: 63, Wrapped: true, Idx2Fifo: []uint64{9}, Idx2Pos: []int{1 << 40}},
	} {
		var buf bytes.Buffer
		if err := gob.NewEncoder(&buf).Encode(st); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte("not a snapshot"))

	accesses := prefetchtest.Accesses(4, 1000)
	f.Fuzz(func(t *testing.T, data []byte) {
		prefetchtest.LoadedState(t, fuzzArm, data, accesses)
	})
}
