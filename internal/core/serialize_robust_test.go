package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"reflect"
	"testing"

	"resemble/internal/flatmap"
	"resemble/internal/mem"
	"resemble/internal/prefetch"
)

// savedTabular drives a controller briefly and returns its snapshot
// plus the trained controller (for post-corruption comparison).
func savedTabular(t *testing.T) (*TabularController, []byte, []mem.Line) {
	t.Helper()
	seq := makeLoop(32)
	c := NewTabularController(testConfig(), []prefetch.Prefetcher{oracle("o", true, seq), garbage("g", false)})
	driveLoop(t, c, seq, 2000)
	var buf bytes.Buffer
	if err := c.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	return c, buf.Bytes(), seq
}

// TestTabularLoadTruncatedLeavesStateIntact: a truncated snapshot must
// error without panicking, and — because decode is staged before
// install — the controller's table must be exactly what it was before
// the failed load.
func TestTabularLoadTruncatedLeavesStateIntact(t *testing.T) {
	c, data, seq := savedTabular(t)
	beforeTokens := c.tokens.Len()
	beforeQ := append([]float64(nil), c.q...)

	for _, cut := range []int{0, 4, 8, 12, 16, len(data) / 2, len(data) - 1} {
		if err := c.LoadModel(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
		if c.tokens.Len() != beforeTokens || !reflect.DeepEqual(c.q, beforeQ) {
			t.Fatalf("truncation at %d mutated controller state", cut)
		}
	}

	// The controller must still run after the failed loads.
	driveLoop(t, c, seq, 100)
}

// TestTabularLoadBitFlips: single-bit corruption anywhere in the header
// region must be rejected or produce a decodable table — never a panic.
// (Flips inside float payloads legitimately decode; the format carries
// no checksum, which the checkpoint layer adds on top.)
func TestTabularLoadBitFlips(t *testing.T) {
	_, data, seq := savedTabular(t)
	for byteIdx := 0; byteIdx < 16 && byteIdx < len(data); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), data...)
			mut[byteIdx] ^= 1 << bit
			c := NewTabularController(testConfig(), []prefetch.Prefetcher{oracle("o", true, seq), garbage("g", false)})
			_ = c.LoadModel(bytes.NewReader(mut)) // must not panic
			driveLoop(t, c, seq, 10)              // must stay usable either way
		}
	}
}

// TestControllerLoadTruncated: the MLP controller path must reject
// truncations without panicking and stay usable.
func TestControllerLoadTruncated(t *testing.T) {
	seq := makeLoop(32)
	c := NewController(testConfig(), []prefetch.Prefetcher{oracle("o", true, seq), garbage("g", false)})
	driveLoop(t, c, seq, 2000)
	var buf bytes.Buffer
	if err := c.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{0, 4, 8, 12, 20, len(data) / 2, len(data) - 1} {
		if err := c.LoadModel(bytes.NewReader(data[:cut])); err == nil {
			t.Errorf("truncation at %d accepted", cut)
		}
	}
	driveLoop(t, c, seq, 100)
}

// TestTabularLoadRejectsDuplicateKeys: two rows with the same token key
// would leave orphan Q-rows; the decoder must reject them.
func TestTabularLoadRejectsDuplicateKeys(t *testing.T) {
	_, data, _ := savedTabular(t)
	// Row payload: 8-byte key + actions × 8-byte floats. Header is
	// magic(8) + actions(4) + rows(4) = 16 bytes.
	c := NewTabularController(testConfig(), []prefetch.Prefetcher{oracle("o", true, makeLoop(8)), garbage("g", false)})
	rowLen := 8 + c.NumActions()*8
	if len(data) < 16+2*rowLen {
		t.Skip("snapshot too small for two rows")
	}
	mut := append([]byte(nil), data...)
	copy(mut[16+rowLen:16+rowLen+8], mut[16:16+8]) // second key := first key
	if err := c.LoadModel(bytes.NewReader(mut)); err == nil {
		t.Error("duplicate key accepted")
	}
}

// TestTabularLoadRejectsReservedKey: the flat token index cannot hold
// the key ^uint64(0); a snapshot carrying it must be rejected with an
// error, leaving the table intact, rather than panicking in the table.
func TestTabularLoadRejectsReservedKey(t *testing.T) {
	c, data, seq := savedTabular(t)
	before := append([]float64(nil), c.q...)
	mut := append([]byte(nil), data...)
	binary.LittleEndian.PutUint64(mut[16:24], flatmap.Reserved) // first row's key
	if err := c.LoadModel(bytes.NewReader(mut)); err == nil {
		t.Fatal("reserved key accepted")
	}
	if !reflect.DeepEqual(c.q, before) {
		t.Fatal("failed load mutated the Q-table")
	}
	driveLoop(t, c, seq, 100)
}

// TestTabularLoadStateRejectsBadPending: a pending transition that
// could never resolve inside the ring (outside the reward window, or
// with an outstanding count the reward tracker cannot honour) must be
// rejected at load, not left to trip the ring's occupied-slot panic
// later in the run.
func TestTabularLoadStateRejectsBadPending(t *testing.T) {
	seq := makeLoop(32)
	mk := func() *TabularController { return NewTabularController(testConfig(), ensembleArms()) }
	c := mk()
	driveLoop(t, c, seq, 500)
	var buf bytes.Buffer
	if err := c.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	buf0 := append([]byte(nil), buf.Bytes()...)
	var st tabularState
	if err := gob.NewDecoder(&buf).Decode(&st); err != nil {
		t.Fatal(err)
	}
	// The oldest prefetching transition: its tracker records come first.
	prefetching := -1
	for i, p := range st.Pending {
		if !p.NP {
			prefetching = i
			break
		}
	}
	if prefetching < 0 {
		t.Fatal("precondition: no prefetching transition pending")
	}
	if err := mk().LoadState(bytes.NewReader(buf0)); err != nil {
		t.Fatalf("unmodified snapshot rejected: %v", err)
	}
	for name, mut := range map[string]func(*tabularState){
		"seq at step":       func(s *tabularState) { s.PendingSeqs[prefetching] = s.Step },
		"seq before window": func(s *tabularState) { s.PendingSeqs[prefetching] = s.Step - 4096 },
		"negative seq": func(s *tabularState) {
			// Consistent with its tracker records, so only the seq
			// range check can catch it.
			for i, seq := range s.Tracker.Seqs {
				if seq == s.PendingSeqs[prefetching] {
					s.Tracker.Seqs[i] = -1
				}
			}
			s.PendingSeqs[prefetching] = -1
		},
		"outstanding mismatch": func(s *tabularState) { s.Pending[prefetching].Outstanding += 1 },
		"token out of range":   func(s *tabularState) { s.Pending[prefetching].Token = len(s.TokenKeys) },
		"repeated token":       func(s *tabularState) { s.TokenVals[0] = s.TokenVals[len(s.TokenVals)-1] },
	} {
		bad := st
		bad.PendingSeqs = append([]int(nil), st.PendingSeqs...)
		bad.Pending = append([]tabTransitionState(nil), st.Pending...)
		bad.TokenVals = append([]int(nil), st.TokenVals...)
		bad.Tracker.Seqs = append([]int(nil), st.Tracker.Seqs...)
		mut(&bad)
		var enc bytes.Buffer
		if err := gob.NewEncoder(&enc).Encode(bad); err != nil {
			t.Fatal(err)
		}
		fresh := mk()
		if err := fresh.LoadState(&enc); err == nil {
			t.Errorf("%s: accepted", name)
		}
		driveLoop(t, fresh, seq, 50) // still usable
	}
}
