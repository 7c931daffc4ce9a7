// Package sim implements the trace-driven memory-hierarchy and core
// timing simulator that stands in for the paper's ChampSim setup
// (DESIGN.md, Substitutions). It models:
//
//   - a three-level data-cache hierarchy (L1D → L2 → LLC) with LRU and
//     prefetch-bit tracking, scaled from the paper's Table V geometry.
//     Prefetches fill only the LLC, so which records the private L1D
//     and L2 serve depends on the trace alone; it is computed once per
//     trace (Filter) and every run of the trace reads it;
//   - a trace-driven out-of-order core: instructions dispatch at the
//     issue width, occupy a finite ROB, and retire in order, so a
//     long-latency miss exposes stall cycles only past the ROB slack —
//     exactly the mechanism that makes prefetching improve IPC;
//   - bounded memory-level parallelism: DRAM requests hold an MSHR slot
//     and respect a minimum inter-request interval (bandwidth);
//   - LLC prefetching with in-flight (pending) fills, so late
//     prefetches hide only part of the miss latency, plus the paper's
//     Figure 11 knobs: controller inference latency and low/high
//     throughput modes.
//
// The prefetch decision logic is abstracted behind Source; individual
// prefetchers and the ensemble controllers all plug in through it.
//
// # Running simulations
//
// Runner is the single entry point. It is constructed once from a
// Config plus functional options and then drives any number of runs;
// every cross-cutting concern — telemetry, checkpoint/resume,
// interrupts, fault injection — is an Option rather than a separate
// RunXxx entry point:
//
//	r := sim.NewRunner(cfg,
//		sim.WithTelemetry(tel),
//		sim.WithCheckpoint("run.ckpt", 10_000),
//		sim.WithFaults(plan),
//	)
//	base, _ := r.With(sim.WithBaseline()).Run(tr, nil)
//	res, err := r.Run(tr, controller)
//
// A Runner is immutable and safe for concurrent use: each Run builds a
// fresh Simulator, so parallel harnesses share one Runner prototype
// and derive per-task variants with With (typically rebinding
// WithTelemetry to a per-task child collector) or WithConfig. The
// experiment harness in internal/experiments follows exactly this
// pattern: experiments.Options carries a []sim.Option that is applied
// verbatim to the Runner, so experiment code and direct simulator use
// share one configuration path.
//
// # Hot-path allocation discipline
//
// The per-record path (step → access → dramIssue / issuePrefetches /
// commitFills) runs on a Simulator: one core's state (clocks, ROB
// window, measured-region counters, access index, low-throughput busy
// time, telemetry window) and the shared state (the LLC, the MSHR
// queue, the DRAM channel and the in-flight prefetch fills), both held
// by value. NewCores runs several cores over one shared state by
// copying the stepping core's state in and out, which is how
// internal/multicore runs this same model. In steady state the path
// allocates nothing: the MSHR, ROB and pending-fill queues are
// head-indexed FIFOs over preallocated backing arrays, and cache
// insertions return eviction records by value. Code added to this path
// must preserve that property — it is pinned by
// TestStepSteadyStateZeroAlloc, and TestBaselineRunAllocBudget bounds
// what a whole run allocates around it.
package sim
