package telemetry

import (
	"runtime/metrics"
	"sort"
)

// Per-phase allocation attribution: when Config.AllocAttribution is
// set, the collector samples the process allocation counters
// (runtime/metrics, exact and STW-free) around every span and at every
// window boundary, and charges the deltas to the span's name — the
// "phase" (sim.run, sim.simulate, window.commit, request, ...). The
// aggregates answer the question the bench tracker cannot: *which
// phase* owns the allocations a run performs.
//
// The sampled values are process-global, so concurrent phases
// double-count each other's allocations and absolute byte/object
// numbers are not deterministic. Phase *names* and *counts* are — they
// follow the span tree, which is a pure function of the workload — so
// determinism tests compare exactly those fields and the attribution
// is off by default everywhere output is byte-compared.

// allocMetricNames are the runtime/metrics counters sampled by
// readAllocTick. /gc/heap/allocs:objects counts heap blocks, and a
// 16-byte tiny block holds several pointer-free objects smaller than
// 16 B; /gc/heap/tiny/allocs:objects counts the objects packed into
// blocks already counted, so the two add up to the count
// runtime.MemStats.Mallocs and testing.AllocsPerRun report.
var allocMetricNames = [3]string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
}

// allocTick is one sample of the cumulative process allocation
// counters.
type allocTick struct {
	bytes   uint64
	objects uint64 // heap blocks plus tiny objects
}

// readAllocTick samples the cumulative allocation counters. The sample
// buffer is stack-allocated, so concurrent readers do not contend.
func readAllocTick() allocTick {
	var s [3]metrics.Sample
	for i, name := range allocMetricNames {
		s[i].Name = name
	}
	metrics.Read(s[:])
	var v [3]uint64
	for i := range s {
		if s[i].Value.Kind() == metrics.KindUint64 {
			v[i] = s[i].Value.Uint64()
		}
	}
	return allocTick{bytes: v[0], objects: v[1] + v[2]}
}

// PhaseAlloc is the accumulated allocation attribution of one phase
// (one span name): how many times the phase ran and how many heap
// bytes/objects the process allocated while it was open.
type PhaseAlloc struct {
	Phase        string `json:"phase"`
	Count        uint64 `json:"count"`
	AllocBytes   uint64 `json:"alloc_bytes"`
	AllocObjects uint64 `json:"alloc_objects"`
}

// recordPhaseAlloc charges one finished phase interval.
func (c *Collector) recordPhaseAlloc(name string, bytes, objects uint64) {
	c.obsMu.Lock()
	pa := c.phaseAllocs[name]
	if pa == nil {
		pa = &PhaseAlloc{Phase: name}
		c.phaseAllocs[name] = pa
	}
	pa.Count++
	pa.AllocBytes += bytes
	pa.AllocObjects += objects
	c.obsMu.Unlock()
}

// mergePhaseAlloc folds one phase aggregate in (used by Merge).
func (c *Collector) mergePhaseAlloc(in PhaseAlloc) {
	c.obsMu.Lock()
	pa := c.phaseAllocs[in.Phase]
	if pa == nil {
		pa = &PhaseAlloc{Phase: in.Phase}
		c.phaseAllocs[in.Phase] = pa
	}
	pa.Count += in.Count
	pa.AllocBytes += in.AllocBytes
	pa.AllocObjects += in.AllocObjects
	c.obsMu.Unlock()
}

// PhaseAllocs returns the per-phase allocation aggregates sorted by
// phase name (nil for a nil or attribution-disabled collector).
func (c *Collector) PhaseAllocs() []PhaseAlloc {
	if c == nil {
		return nil
	}
	c.obsMu.Lock()
	out := make([]PhaseAlloc, 0, len(c.phaseAllocs))
	for _, pa := range c.phaseAllocs {
		out = append(out, *pa)
	}
	c.obsMu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Phase < out[j].Phase })
	if len(out) == 0 {
		return nil
	}
	return out
}
