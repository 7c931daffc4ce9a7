package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"resemble/internal/mem"
)

// Property: the reward tracker resolves every prefetch exactly once —
// each Add(seq) eventually appears in exactly one of hits or expired,
// never both, never twice.
func TestRewardTrackerResolvesExactlyOnce(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := NewRewardTracker(16)
		resolved := map[int]int{}
		added := map[int]bool{}
		var hits, exp []int
		for seq := 0; seq < 500; seq++ {
			line := mem.Line(rng.Intn(32))
			hits, exp = tr.Resolve(seq, line, hits, exp)
			for _, s := range hits {
				resolved[s]++
			}
			for _, s := range exp {
				resolved[s]++
			}
			if rng.Intn(2) == 0 {
				tr.Add(seq, mem.Line(rng.Intn(32)))
				added[seq] = true
			}
		}
		// Flush the stragglers far past the window.
		hits, exp = tr.Resolve(10_000, 0, hits, exp)
		for _, s := range exp {
			resolved[s]++
		}
		for _, s := range hits {
			resolved[s]++
		}
		for seq := range added {
			if resolved[seq] != 1 {
				return false
			}
		}
		for seq, n := range resolved {
			if !added[seq] || n != 1 {
				return false
			}
		}
		return tr.Pending() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: hits are only reported for matching lines within the
// window, and expiries only past it.
func TestRewardTrackerTimingBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const window = 20
		tr := NewRewardTracker(window)
		addTime := map[int]int{}
		addLine := map[int]mem.Line{}
		var hits, exp []int
		for seq := 0; seq < 300; seq++ {
			line := mem.Line(rng.Intn(16))
			hits, exp = tr.Resolve(seq, line, hits, exp)
			for _, s := range hits {
				if addLine[s] != line || seq-addTime[s] >= window || seq <= addTime[s] {
					return false
				}
			}
			for _, s := range exp {
				if seq-addTime[s] < window {
					return false
				}
			}
			tr.Add(seq, mem.Line(rng.Intn(16)))
			addTime[seq] = seq
			addLine[seq] = mem.Line(0)
			// Re-read what we actually added (last Add wins for seq).
			live := tr.recs.Live()
			addLine[seq] = live[len(live)-1].line
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: the replay memory never returns a transition whose Seq
// disagrees with the requested one, and live count never exceeds
// capacity.
func TestReplayConsistencyUnderRandomOps(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		capacity := 1 + rng.Intn(32)
		r := NewReplay(capacity)
		next := 0
		for op := 0; op < 400; op++ {
			switch rng.Intn(4) {
			case 0:
				r.Push(Transition{Seq: next, State: []float64{float64(next)}})
				next++
			case 1:
				if next > 0 {
					seq := rng.Intn(next)
					r.SetReward(seq, 1)
					if tr := r.Get(seq); tr != nil && (tr.Seq != seq || !tr.HasReward) {
						return false
					}
				}
			case 2:
				if next > 0 {
					seq := rng.Intn(next)
					r.SetNext(seq, []float64{1, 2})
					if tr := r.Get(seq); tr != nil && tr.Seq != seq {
						return false
					}
				}
			case 3:
				got := r.SampleValid(rng, 8, nil)
				for _, tr := range got {
					if !tr.Valid() {
						return false
					}
				}
			}
			if r.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: state vectors are always bounded: every element lies in
// [0, 1] regardless of the observation content.
func TestStateVectorBounded(t *testing.T) {
	f := func(lines []uint64, cur uint64, pc uint64) bool {
		obs := make([]Observation, 0, len(lines))
		for i, l := range lines {
			obs = append(obs, Observation{
				Line:    l,
				Valid:   i%3 != 0,
				Spatial: i%2 == 0,
			})
		}
		s := StateVector(nil, obs, cur, pc, 16, true)
		for _, v := range s {
			if v < 0 || v > 1 {
				return false
			}
		}
		return len(s) == len(obs)+1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: the tabular key is a pure function of (observations, cur,
// pc, bits, usePC) and never exceeds the packed width.
func TestTabularKeyPure(t *testing.T) {
	f := func(l1, l2, cur, pc uint64) bool {
		obs := []Observation{
			{Line: l1, Valid: true, Spatial: true},
			{Line: l2, Valid: true},
		}
		const bits = 8
		k1 := TabularKey(obs, cur, pc, bits, true)
		k2 := TabularKey(obs, cur, pc, bits, true)
		if k1 != k2 {
			return false
		}
		return k1 < 1<<(3*bits)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
