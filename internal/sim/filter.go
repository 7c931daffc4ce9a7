package sim

import (
	"resemble/internal/cache"
	"resemble/internal/trace"
)

// level is the level of the private hierarchy that serves a record.
type level uint8

// The private-hierarchy outcomes of a record.
const (
	// toLLC: the record missed in L1D and L2 and goes to the LLC, where
	// the prefetch source observes it.
	toLLC level = iota
	// l1dHit: the record hit in the L1D.
	l1dHit
	// l2Hit: the record missed in the L1D and hit in the L2.
	l2Hit
)

// filter is a trace's private-hierarchy outcome: for every record, the
// level that serves it, and the L1D and L2 statistics over the
// measured region.
//
// Prefetches fill only the LLC, and the L1D and L2 are non-inclusive
// with no back-invalidation, so this outcome depends on the trace and
// the L1D/L2 geometry alone, never on the prefetch source or the LLC.
// filterFor computes it once per trace and every run of the trace
// shares it (DESIGN.md §13, *The private hierarchy is simulated once
// per trace*).
type filter struct {
	levels  []level
	l1d, l2 cache.Stats
}

// filterKey pins everything a filter depends on besides the records.
type filterKey struct {
	l1d, l2   cache.Config
	n         int
	warmupEnd int
}

// warmupEndOf returns the index of the first measured record of an
// n-record trace.
func warmupEndOf(n int, frac float64) int { return int(float64(n) * frac) }

// filterFor returns tr's private-hierarchy outcome under cfg's L1D and
// L2 and warmup fraction. It is built on first use and kept on the
// trace, so it lives exactly as long as the trace does; concurrent
// callers share one build.
func filterFor(tr *trace.Trace, cfg Config) *filter {
	key := filterKey{l1d: cfg.L1D, l2: cfg.L2, n: len(tr.Records), warmupEnd: warmupEndOf(len(tr.Records), cfg.WarmupFraction)}
	return tr.Derived(key, func() any { return buildFilter(tr.Records, key) }).(*filter)
}

// buildFilter runs the records through a private L1D and L2: L1D
// access, then L2 access, then an L1D fill on an L2 hit, or an L2 fill
// and then an L1D fill on an access that goes to the LLC. Statistics
// restart at the warmup boundary.
func buildFilter(recs []trace.Record, key filterKey) *filter {
	l1d, l2 := cache.New(key.l1d), cache.New(key.l2)
	f := &filter{levels: make([]level, len(recs))}
	for i, rec := range recs {
		if i == key.warmupEnd {
			l1d.ResetStats()
			l2.ResetStats()
		}
		line := rec.Line()
		if hit, _ := l1d.Access(line); hit {
			f.levels[i] = l1dHit
			continue
		}
		if hit, _ := l2.Access(line); hit {
			l1d.Insert(line, false)
			f.levels[i] = l2Hit
			continue
		}
		l2.Insert(line, false)
		l1d.Insert(line, false)
	}
	f.l1d, f.l2 = l1d.Stats(), l2.Stats()
	return f
}

// Level returns the level that serves record i.
func (f *filter) Level(i int) level { return f.levels[i] }

// Stats returns the L1D and L2 statistics over the measured region.
func (f *filter) Stats() (l1d, l2 cache.Stats) { return f.l1d, f.l2 }
