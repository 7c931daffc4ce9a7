// Package cache implements the set-associative caches of the simulated
// memory hierarchy: LRU replacement, prefetch-bit tracking for
// useful-prefetch accounting (the paper's accuracy/coverage metrics are
// defined on "prefetched line referenced before it is replaced"), and
// per-cache statistics.
//
// Caches operate at cache-line granularity: all addresses passed in are
// line addresses (byte address >> mem.BlockBits).
package cache

import (
	"fmt"

	"resemble/internal/mem"
)

// Policy selects the replacement policy.
type Policy int

// Supported replacement policies. The paper evaluates with LRU; SRRIP
// (Jaleel et al., ISCA 2010) is provided for robustness studies.
const (
	LRU Policy = iota
	SRRIP
)

func (p Policy) String() string {
	switch p {
	case LRU:
		return "lru"
	case SRRIP:
		return "srrip"
	default:
		return fmt.Sprintf("policy(%d)", int(p))
	}
}

// Config describes one cache.
type Config struct {
	// Name labels the cache in stats output ("L1D", "L2", "LLC").
	Name string
	// Sets and Ways define the geometry; capacity is Sets*Ways lines.
	Sets, Ways int
	// Latency is the access latency in cycles (used by the timing model,
	// carried here so a hierarchy is self-describing).
	Latency uint64
	// MSHRs bounds outstanding misses at this level (used by the timing
	// model).
	MSHRs int
	// Policy selects the replacement policy (default LRU).
	Policy Policy
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.Sets <= 0 || c.Sets&(c.Sets-1) != 0 {
		return fmt.Errorf("cache %s: sets must be a positive power of two, got %d", c.Name, c.Sets)
	}
	if c.Ways <= 0 {
		return fmt.Errorf("cache %s: ways must be positive, got %d", c.Name, c.Ways)
	}
	return nil
}

// Lines returns the capacity in cache lines.
func (c Config) Lines() int { return c.Sets * c.Ways }

// Bytes returns the capacity in bytes.
func (c Config) Bytes() int { return c.Lines() * mem.LineSize }

// Stats counts cache events. Prefetch accounting follows the paper's
// definition: a prefetch is useful iff the prefetched line is referenced
// by a demand access before being replaced.
type Stats struct {
	Accesses uint64 // demand lookups
	Hits     uint64
	Misses   uint64

	DemandFills    uint64 // lines inserted on demand misses
	PrefetchFills  uint64 // lines inserted by prefetch
	PrefetchDupes  uint64 // prefetches that found the line already present
	UsefulPrefetch uint64 // prefetched lines referenced before eviction
	UselessEvicted uint64 // prefetched lines evicted unreferenced
	Evictions      uint64
}

// HitRate returns Hits/Accesses, or 0 when there were no accesses.
func (s Stats) HitRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Accesses)
}

type way struct {
	tag        mem.Line // full line address (tag+index combined)
	valid      bool
	lastUse    uint64 // LRU timestamp
	rrpv       uint8  // SRRIP re-reference prediction value
	prefetched bool   // inserted by prefetch and not yet demand-referenced
}

// srripMax is the distant re-reference value (2-bit RRPV).
const srripMax = 3

// Cache is a set-associative cache with LRU replacement.
type Cache struct {
	cfg   Config
	sets  [][]way
	clock uint64
	stats Stats

	// Miss memo: the victim way found by the scan of the last missing
	// Access. The simulator's demand pattern is lookup-miss followed
	// immediately by the fill of the same line, so Insert can reuse that
	// scan instead of walking the set again. missClock == clock proves
	// no other operation touched the cache in between (every Access and
	// Insert bumps the clock); a zero missClock means no memo.
	missLine   mem.Line
	missVictim int
	missClock  uint64
}

// New builds a cache; it panics on invalid configuration (configs are
// static tables in this codebase).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := make([][]way, cfg.Sets)
	backing := make([]way, cfg.Sets*cfg.Ways)
	for i := range sets {
		sets[i] = backing[i*cfg.Ways : (i+1)*cfg.Ways]
	}
	return &Cache{cfg: cfg, sets: sets}
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a copy of the accumulated statistics.
func (c *Cache) Stats() Stats { return c.stats }

// ResetStats zeroes the statistics (used at the end of warmup).
func (c *Cache) ResetStats() { c.stats = Stats{} }

func (c *Cache) setOf(line mem.Line) []way {
	return c.sets[line&uint64(c.cfg.Sets-1)]
}

// Access performs a demand lookup of a line, updating LRU and prefetch
// bits. It returns whether the access hit and whether this hit was the
// first demand reference to a prefetched line (a useful prefetch).
func (c *Cache) Access(line mem.Line) (hit, firstUseOfPrefetch bool) {
	c.clock++
	c.stats.Accesses++
	set := c.setOf(line)
	// Valid ways form a prefix (fills take the leftmost invalid way and
	// only Flush invalidates), so the scan can stop at the first invalid
	// way; it doubles as the miss victim. The LRU victim is tracked
	// along the way so a miss leaves a ready-to-use fill memo behind.
	victim, victimUse := 0, ^uint64(0)
	for i := range set {
		w := &set[i]
		if !w.valid {
			victim = i
			break
		}
		if w.tag == line {
			c.stats.Hits++
			w.lastUse = c.clock
			w.rrpv = 0 // SRRIP hit promotion
			if w.prefetched {
				w.prefetched = false
				c.stats.UsefulPrefetch++
				return true, true
			}
			return true, false
		}
		if w.lastUse < victimUse {
			victim, victimUse = i, w.lastUse
		}
	}
	c.stats.Misses++
	c.missLine, c.missVictim, c.missClock = line, victim, c.clock
	return false, false
}

// Contains reports whether the line is present without touching LRU
// state or statistics.
func (c *Cache) Contains(line mem.Line) bool {
	for i := range c.setOf(line) {
		w := &c.setOf(line)[i]
		if w.valid && w.tag == line {
			return true
		}
	}
	return false
}

// EvictedLine describes a line displaced by an insertion.
type EvictedLine struct {
	Line mem.Line
	// UnusedPrefetch is true when the victim was prefetched and never
	// demand-referenced.
	UnusedPrefetch bool
}

// Insert fills a line (demand fill when isPrefetch is false). If the
// line is already present, a prefetch insert is counted as a duplicate
// and nothing changes; a demand insert refreshes LRU. The returned
// EvictedLine is meaningful only when evicted is true: a valid line was
// displaced. The eviction record is returned by value — this call sits
// on the simulator's per-access path five times over, and a heap
// escape here used to account for the large majority of all simulation
// allocations.
func (c *Cache) Insert(line mem.Line, isPrefetch bool) (ev EvictedLine, evicted bool) {
	set := c.setOf(line)
	if c.missClock != 0 && c.missClock == c.clock && c.missLine == line {
		// Fill of the line the immediately preceding Access missed on:
		// that scan already proved the line absent and found the victim,
		// so skip straight to the replacement.
		c.clock++
		victim := c.missVictim
		if c.cfg.Policy == SRRIP && set[victim].valid {
			victim = c.pickSRRIPVictim(set)
		}
		return c.fill(&set[victim], line, isPrefetch)
	}
	c.clock++
	// One pass finds both the line (hit) and the replacement victim:
	// the first invalid way wins immediately; otherwise the LRU way is
	// tracked as the scan goes (SRRIP selects separately below).
	victim, victimUse := 0, ^uint64(0)
	for i := range set {
		w := &set[i]
		if !w.valid {
			victim = i
			break
		}
		if w.tag == line {
			if isPrefetch {
				c.stats.PrefetchDupes++
			} else {
				w.lastUse = c.clock
				if w.prefetched {
					// Demand fill over a prefetched line: treat as the
					// demand reference (can happen with late prefetches).
					w.prefetched = false
					c.stats.UsefulPrefetch++
				}
			}
			return EvictedLine{}, false
		}
		if w.lastUse < victimUse {
			victim, victimUse = i, w.lastUse
		}
	}
	if c.cfg.Policy == SRRIP && set[victim].valid {
		victim = c.pickSRRIPVictim(set)
	}
	return c.fill(&set[victim], line, isPrefetch)
}

// fill replaces the victim way with line and does the eviction and fill
// accounting shared by both Insert paths.
func (c *Cache) fill(w *way, line mem.Line, isPrefetch bool) (ev EvictedLine, evicted bool) {
	if w.valid {
		c.stats.Evictions++
		ev = EvictedLine{Line: w.tag, UnusedPrefetch: w.prefetched}
		evicted = true
		if w.prefetched {
			c.stats.UselessEvicted++
		}
	}
	w.tag = line
	w.valid = true
	w.lastUse = c.clock
	w.rrpv = 2 // SRRIP long re-reference insertion
	w.prefetched = isPrefetch
	if isPrefetch {
		c.stats.PrefetchFills++
	} else {
		c.stats.DemandFills++
	}
	return ev, evicted
}

// pickSRRIPVictim finds an RRPV==max way, aging the set until one
// exists. Only called on a full set.
func (c *Cache) pickSRRIPVictim(set []way) int {
	for {
		for i := range set {
			if set[i].rrpv >= srripMax {
				return i
			}
		}
		for i := range set {
			set[i].rrpv++
		}
	}
}

// Occupancy returns the number of valid lines (for tests and debugging).
func (c *Cache) Occupancy() int {
	n := 0
	for _, set := range c.sets {
		for _, w := range set {
			if w.valid {
				n++
			}
		}
	}
	return n
}

// Reset returns the cache to the state New leaves it in, keeping its
// ways: every line invalid, the clock and statistics zero, no miss
// memo.
func (c *Cache) Reset() {
	for _, set := range c.sets {
		clear(set)
	}
	*c = Cache{cfg: c.cfg, sets: c.sets}
}

// Flush invalidates every line and leaves statistics untouched.
func (c *Cache) Flush() {
	c.missClock = 0 // ways changed without a clock bump; drop the memo
	for _, set := range c.sets {
		for i := range set {
			set[i] = way{}
		}
	}
}
