package domino

import (
	"bytes"
	"encoding/gob"
	"reflect"
	"testing"

	"resemble/internal/flatmap"
	"resemble/internal/mem"
	"resemble/internal/prefetch"
)

// snapshot drives a small Domino over a repeating miss sequence and
// returns it with its decoded state.
func snapshot(t *testing.T, cfg Config, n int) (*Prefetcher, dominoState) {
	t.Helper()
	p := New(cfg)
	for i := 0; i < n; i++ {
		p.Observe(access(mem.Line(0x40 + i%13)))
	}
	var buf bytes.Buffer
	if err := p.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	var st dominoState
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return p, st
}

func encode(t *testing.T, st dominoState) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// replayMatches drives both prefetchers over the same accesses and
// requires identical suggestions.
func replayMatches(t *testing.T, want, got *Prefetcher) {
	t.Helper()
	for i := 0; i < 200; i++ {
		a := access(mem.Line(0x40 + (i*7)%17))
		w := append([]prefetch.Suggestion(nil), want.Observe(a)...)
		g := got.Observe(a)
		if !reflect.DeepEqual(w, append([]prefetch.Suggestion(nil), g...)) {
			t.Fatalf("access %d: suggestions %+v, want %+v", i, g, w)
		}
	}
}

// TestLoadStateRejectsBadLog: a snapshot whose log cursor or log
// length cannot describe a valid history must be rejected on load
// (it used to be accepted and panic at the next Observe), leaving the
// prefetcher unchanged.
func TestLoadStateRejectsBadLog(t *testing.T) {
	cfg := Config{LogSize: 64, IndexSize: 32}
	_, st := snapshot(t, cfg, 40)
	for name, mut := range map[string]func(*dominoState){
		"negative cursor":    func(s *dominoState) { s.LogAt = -1 },
		"cursor at LogSize":  func(s *dominoState) { s.LogAt = 64 },
		"cursor past log":    func(s *dominoState) { s.LogAt = len(s.Log) + 1 },
		"wrapped short log":  func(s *dominoState) { s.Wrapped = true },
		"log over LogSize":   func(s *dominoState) { s.Log = make([]mem.Line, 65) },
		"reserved index key": func(s *dominoState) { s.Idx1Fifo[0] = flatmap.Reserved },
	} {
		bad := st
		bad.Log = append([]mem.Line(nil), st.Log...)
		bad.Idx1Fifo = append([]mem.Line(nil), st.Idx1Fifo...)
		mut(&bad)
		p := New(cfg)
		if err := p.LoadState(bytes.NewReader(encode(t, bad))); err == nil {
			t.Errorf("%s: accepted", name)
		}
		replayMatches(t, New(cfg), p) // still the fresh prefetcher
	}
}

// TestLoadStateAcceptsFullLengthLog: snapshots taken before the log
// grew on demand carry an unwrapped log zero-padded to LogSize. They
// load (trimmed to the cursor) and continue exactly like the run that
// wrote them, as do wrapped logs.
func TestLoadStateAcceptsFullLengthLog(t *testing.T) {
	cfg := Config{LogSize: 64, IndexSize: 32}
	for _, n := range []int{40, 150} {
		orig, st := snapshot(t, cfg, n)
		if len(st.Log) < cfg.LogSize {
			st.Log = append(st.Log, make([]mem.Line, cfg.LogSize-len(st.Log))...)
		}
		p := New(cfg)
		if err := p.LoadState(bytes.NewReader(encode(t, st))); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if want := min(n, cfg.LogSize); len(p.log) != want {
			t.Fatalf("n=%d: loaded log len %d, want %d", n, len(p.log), want)
		}
		replayMatches(t, orig, p)
	}
}
