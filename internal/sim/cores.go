package sim

import (
	"resemble/internal/mem"
	"resemble/internal/trace"
)

// Core is one core of a machine whose cores share one Simulator: its
// shared state (the LLC, the DRAM channel and the in-flight prefetch
// fills) is the machine's, and each Core swaps its own core state in
// for a step, so the per-record path is the single-core one with no
// extra indirection. The caller interleaves the cores (see NewCores).
type Core struct {
	s         *Simulator
	state     coreState
	tr        *trace.Trace
	src       Source
	next      int
	warmupEnd int
}

// NewCores builds one core per trace over a single shared LLC, DRAM
// channel and set of in-flight prefetch fills. Core i runs traces[i]
// with srcs[i] (nil for no prefetching) and adds offsets[i] to every
// address before the LLC line is taken, so its source sees the offset
// addresses too. Like New, it panics on an invalid configuration.
func NewCores(cfg Config, traces []*trace.Trace, srcs []Source, offsets []mem.Addr) []*Core {
	s := New(cfg)
	cores := make([]*Core, len(traces))
	for i, tr := range traces {
		c := &Core{s: s, state: newCoreState(s.cfg), tr: tr, src: srcs[i],
			warmupEnd: warmupEndOf(len(tr.Records), s.cfg.WarmupFraction)}
		c.state.priv = FilterFor(tr, s.cfg)
		c.state.offset = offsets[i]
		cores[i] = c
	}
	return cores
}

// Done reports whether the core has run its whole trace.
func (c *Core) Done() bool { return c.next == len(c.tr.Records) }

// Clock returns the core's dispatch clock.
func (c *Core) Clock() float64 { return c.state.dispatch }

// Step runs the core's next record, first restarting its measurement
// if the record is its first past warmup.
func (c *Core) Step() {
	s := c.s
	s.coreState = c.state
	rec := c.tr.Records[c.next]
	if c.next == c.warmupEnd {
		s.resetMeasurement(rec.ID)
	}
	s.step(rec, s.priv.levels[c.next], c.src)
	c.state = s.coreState
	c.next++
}

// Result returns the core's measured-region result. Its Caches["LLC"]
// is the shared LLC's statistics since the last core's warmup boundary.
func (c *Core) Result() Result {
	c.s.coreState = c.state
	return c.s.result(c.tr, c.src)
}
