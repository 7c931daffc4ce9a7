package sim

import (
	"bytes"
	"math/rand"
	"testing"

	"resemble/internal/mem"
	"resemble/internal/trace"
)

// bisectRetireTimeOf is the binary search over the whole live ROB
// window that retireTimeOf's forward scan replaced.
func bisectRetireTimeOf(s *Simulator, id uint64) (float64, bool) {
	lo, hi := s.robHead, len(s.robQ)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if s.robQ[mid].id <= id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == s.robHead {
		return 0, false
	}
	best := &s.robQ[lo-1]
	return best.retire + float64(id-best.id)/float64(s.cfg.IssueWidth), true
}

// TestRetireTimeOfMatchesBisect steps a simulator over records with
// random instruction-ID gaps (repeated IDs, short gaps, and jumps past
// a whole ROB window) and checks each step's ROB lookup against the
// binary search, before and after a checkpoint resume mid-run.
func TestRetireTimeOfMatchesBisect(t *testing.T) {
	cfg := DefaultConfig()
	rng := rand.New(rand.NewSource(7))
	recs := make([]trace.Record, 60000)
	var id uint64
	for i := range recs {
		switch r := rng.Intn(100); {
		case r < 2:
		case r < 90:
			id += 1 + uint64(rng.Intn(12))
		default:
			id += uint64(rng.Intn(3 * cfg.ROB))
		}
		line := mem.Line(rng.Intn(1 << 14))
		recs[i] = trace.Record{ID: id, PC: 0x400000, Addr: mem.LineAddr(line)}
	}
	priv := FilterFor(&trace.Trace{Records: recs}, cfg)
	lookups, found := 0, 0
	check := func(s *Simulator, lo, hi int) {
		t.Helper()
		for i := lo; i < hi; i++ {
			rec := recs[i]
			if rec.ID >= uint64(cfg.ROB) {
				target := rec.ID - uint64(cfg.ROB)
				got, gotOK := s.retireTimeOf(target)
				want, wantOK := bisectRetireTimeOf(s, target)
				if got != want || gotOK != wantOK {
					t.Fatalf("record %d (id %d): retireTimeOf = %v, %v; binary search gives %v, %v", i, rec.ID, got, gotOK, want, wantOK)
				}
				lookups++
				if gotOK {
					found++
				}
			}
			s.step(rec, priv.Level(i), nil)
		}
	}
	s := New(cfg)
	check(s, 0, 30000)
	var buf bytes.Buffer
	if err := s.SaveState(&buf); err != nil {
		t.Fatal(err)
	}
	resumed := New(cfg)
	if err := resumed.LoadState(&buf); err != nil {
		t.Fatal(err)
	}
	check(resumed, 30000, len(recs))
	check(s, 30000, len(recs))
	if 2*found < lookups {
		t.Fatalf("only %d of %d lookups found a preceding load", found, lookups)
	}
}
