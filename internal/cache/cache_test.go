package cache

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
)

func small() *Cache {
	return New(Config{Name: "t", Sets: 4, Ways: 2, Latency: 10, MSHRs: 8})
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "a", Sets: 0, Ways: 1},
		{Name: "b", Sets: 3, Ways: 1},
		{Name: "c", Sets: 4, Ways: 0},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	good := Config{Name: "d", Sets: 8, Ways: 4}
	if err := good.Validate(); err != nil {
		t.Errorf("config %+v should be valid: %v", good, err)
	}
	if good.Lines() != 32 || good.Bytes() != 32*64 {
		t.Errorf("Lines/Bytes wrong: %d/%d", good.Lines(), good.Bytes())
	}
}

func TestMissThenHit(t *testing.T) {
	c := small()
	if hit, _ := c.Access(100); hit {
		t.Error("cold access should miss")
	}
	c.Insert(100, false)
	if hit, first := c.Access(100); !hit || first {
		t.Errorf("hit=%v first=%v, want hit and not first-use", hit, first)
	}
	s := c.Stats()
	if s.Accesses != 2 || s.Hits != 1 || s.Misses != 1 || s.DemandFills != 1 {
		t.Errorf("stats: %+v", s)
	}
}

func TestUsefulPrefetchAccounting(t *testing.T) {
	c := small()
	c.Insert(200, true)
	if s := c.Stats(); s.PrefetchFills != 1 {
		t.Fatalf("PrefetchFills = %d", s.PrefetchFills)
	}
	hit, first := c.Access(200)
	if !hit || !first {
		t.Fatalf("hit=%v first=%v, want useful prefetch hit", hit, first)
	}
	// A second access to the same line is an ordinary hit.
	hit, first = c.Access(200)
	if !hit || first {
		t.Fatalf("second access: hit=%v first=%v", hit, first)
	}
	if s := c.Stats(); s.UsefulPrefetch != 1 {
		t.Errorf("UsefulPrefetch = %d, want 1", s.UsefulPrefetch)
	}
}

func TestUselessPrefetchEviction(t *testing.T) {
	c := New(Config{Name: "t", Sets: 1, Ways: 2})
	c.Insert(1, true) // unused prefetch
	c.Insert(2, false)
	ev, ok := c.Insert(3, false) // must evict line 1 (LRU)
	if !ok || ev.Line != 1 || !ev.UnusedPrefetch {
		t.Fatalf("eviction = %+v (evicted=%v), want unused prefetch of line 1", ev, ok)
	}
	if s := c.Stats(); s.UselessEvicted != 1 {
		t.Errorf("UselessEvicted = %d, want 1", s.UselessEvicted)
	}
}

func TestLRUOrder(t *testing.T) {
	c := New(Config{Name: "t", Sets: 1, Ways: 2})
	c.Insert(1, false)
	c.Insert(2, false)
	c.Access(1)                  // 1 is now MRU
	ev, ok := c.Insert(3, false) // should evict 2
	if !ok || ev.Line != 2 {
		t.Fatalf("evicted %+v (evicted=%v), want line 2", ev, ok)
	}
	if !c.Contains(1) || !c.Contains(3) || c.Contains(2) {
		t.Error("wrong residency after LRU eviction")
	}
}

func TestPrefetchDuplicate(t *testing.T) {
	c := small()
	c.Insert(7, false)
	c.Insert(7, true)
	s := c.Stats()
	if s.PrefetchDupes != 1 || s.PrefetchFills != 0 {
		t.Errorf("dupes=%d fills=%d, want 1/0", s.PrefetchDupes, s.PrefetchFills)
	}
}

func TestLatePrefetchDemandFillOverPrefetched(t *testing.T) {
	// A demand fill landing on an unreferenced prefetched line counts it
	// as useful (the demand wanted exactly this line).
	c := small()
	c.Insert(9, true)
	c.Insert(9, false)
	if s := c.Stats(); s.UsefulPrefetch != 1 {
		t.Errorf("UsefulPrefetch = %d, want 1", s.UsefulPrefetch)
	}
}

func TestContainsDoesNotPerturb(t *testing.T) {
	c := New(Config{Name: "t", Sets: 1, Ways: 2})
	c.Insert(1, false)
	c.Insert(2, false)
	c.Contains(1) // must NOT refresh LRU
	ev, ok := c.Insert(3, false)
	if !ok || ev.Line != 1 {
		t.Fatalf("evicted %+v (evicted=%v), want line 1 (Contains must not touch LRU)", ev, ok)
	}
	if got := c.Stats().Accesses; got != 0 {
		t.Errorf("Contains counted as access: %d", got)
	}
}

func TestSetIndexing(t *testing.T) {
	c := New(Config{Name: "t", Sets: 4, Ways: 1})
	// Lines 0..3 map to distinct sets; all must be resident together.
	for l := uint64(0); l < 4; l++ {
		c.Insert(l, false)
	}
	for l := uint64(0); l < 4; l++ {
		if !c.Contains(l) {
			t.Errorf("line %d missing across distinct sets", l)
		}
	}
	// Line 4 conflicts with line 0 only.
	c.Insert(4, false)
	if c.Contains(0) {
		t.Error("line 0 should be evicted by conflicting line 4")
	}
	if !c.Contains(1) {
		t.Error("line 1 should be untouched")
	}
}

func TestFlushAndOccupancy(t *testing.T) {
	c := small()
	for l := uint64(0); l < 8; l++ {
		c.Insert(l, false)
	}
	if c.Occupancy() != 8 {
		t.Errorf("occupancy = %d, want 8", c.Occupancy())
	}
	c.Flush()
	if c.Occupancy() != 0 {
		t.Errorf("occupancy after flush = %d", c.Occupancy())
	}
}

func TestResetStats(t *testing.T) {
	c := small()
	c.Access(1)
	c.ResetStats()
	if s := c.Stats(); s.Accesses != 0 || s.Misses != 0 {
		t.Errorf("stats not reset: %+v", s)
	}
}

// TestResetMatchesNew: a used cache that is Reset (mid-memo, after a
// missing Access) saves to the same bytes as a new one and then
// behaves the same under the same operations.
func TestResetMatchesNew(t *testing.T) {
	ops := func(c *Cache, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			line := uint64(rng.Intn(256))
			switch rng.Intn(3) {
			case 0:
				c.Access(line)
			case 1:
				c.Insert(line, false)
			case 2:
				c.Insert(line, true)
			}
		}
	}
	save := func(c *Cache) []byte {
		var buf bytes.Buffer
		if err := c.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	used := small()
	ops(used, 1)
	used.Access(1 << 20) // leaves a miss memo behind
	used.Reset()
	fresh := small()
	if !bytes.Equal(save(used), save(fresh)) {
		t.Fatal("reset cache differs from a new one")
	}
	ops(used, 2)
	ops(fresh, 2)
	if !bytes.Equal(save(used), save(fresh)) || used.Stats() != fresh.Stats() {
		t.Fatal("reset cache diverges from a new one under the same operations")
	}
}

func TestOccupancyNeverExceedsCapacity(t *testing.T) {
	f := func(seed int64) bool {
		c := New(Config{Name: "q", Sets: 8, Ways: 2})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			line := uint64(rng.Intn(256))
			switch rng.Intn(3) {
			case 0:
				c.Access(line)
			case 1:
				c.Insert(line, false)
			case 2:
				c.Insert(line, true)
			}
			if c.Occupancy() > c.Config().Lines() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestInsertedLineIsResident(t *testing.T) {
	f := func(lines []uint64) bool {
		c := New(Config{Name: "q", Sets: 16, Ways: 4})
		for _, l := range lines {
			l %= 1024
			c.Insert(l, false)
			if !c.Contains(l) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestHitRateConsistency(t *testing.T) {
	// Property: Hits + Misses == Accesses, always.
	f := func(seed int64) bool {
		c := New(Config{Name: "q", Sets: 4, Ways: 2})
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 300; i++ {
			line := uint64(rng.Intn(64))
			if hit, _ := c.Access(line); !hit {
				c.Insert(line, rng.Intn(2) == 0)
			}
		}
		s := c.Stats()
		return s.Hits+s.Misses == s.Accesses
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestSRRIPBasics(t *testing.T) {
	c := New(Config{Name: "r", Sets: 1, Ways: 2, Policy: SRRIP})
	c.Insert(1, false)
	c.Insert(2, false)
	// Promote line 1 (rrpv -> 0); line 2 stays at insertion rrpv.
	c.Access(1)
	c.Insert(3, false)
	if c.Contains(2) {
		t.Error("SRRIP should evict the non-rereferenced line 2")
	}
	if !c.Contains(1) || !c.Contains(3) {
		t.Error("wrong residency after SRRIP eviction")
	}
}

func TestSRRIPAgingTerminates(t *testing.T) {
	// All-promoted set: eviction must still find a victim by aging.
	c := New(Config{Name: "r", Sets: 1, Ways: 4, Policy: SRRIP})
	for l := uint64(1); l <= 4; l++ {
		c.Insert(l, false)
		c.Access(l) // rrpv -> 0 for everyone
	}
	c.Insert(99, false) // must not loop forever
	if !c.Contains(99) {
		t.Error("insertion after aging failed")
	}
	if c.Occupancy() != 4 {
		t.Errorf("occupancy = %d, want 4", c.Occupancy())
	}
}

func TestSRRIPScanResistance(t *testing.T) {
	// A hot working set repeatedly referenced must survive a one-shot
	// scan under SRRIP; under LRU the scan evicts it.
	run := func(policy Policy) int {
		c := New(Config{Name: "s", Sets: 1, Ways: 4, Policy: policy})
		hot := []uint64{1, 2, 3}
		for round := 0; round < 10; round++ {
			for _, l := range hot {
				if h, _ := c.Access(l); !h {
					c.Insert(l, false)
				}
			}
		}
		// One-shot scan of cold lines.
		for l := uint64(100); l < 104; l++ {
			if h, _ := c.Access(l); !h {
				c.Insert(l, false)
			}
		}
		survived := 0
		for _, l := range hot {
			if c.Contains(l) {
				survived++
			}
		}
		return survived
	}
	if lru, srrip := run(LRU), run(SRRIP); srrip < lru {
		t.Errorf("SRRIP (%d hot lines survive) should not be worse than LRU (%d) under scans", srrip, lru)
	}
}

func TestPolicyString(t *testing.T) {
	if LRU.String() != "lru" || SRRIP.String() != "srrip" {
		t.Error("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Error("unknown policy should stringify")
	}
}

func TestHitRate(t *testing.T) {
	var s Stats
	if s.HitRate() != 0 {
		t.Error("empty HitRate should be 0")
	}
	s = Stats{Accesses: 4, Hits: 3}
	if s.HitRate() != 0.75 {
		t.Errorf("HitRate = %v", s.HitRate())
	}
}
