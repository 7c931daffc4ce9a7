// Package multicore extends the simulator to multi-core ensembles —
// the paper's stated future work ("ensemble prefetching for multi-core
// architectures", Section VIII). Each core runs its own trace through
// private L1D/L2 caches and its own prefetch source (e.g. a per-core
// ReSemble controller); all cores share the LLC and the DRAM channel,
// so prefetching decisions interact through capacity contention and
// bandwidth.
//
// The timing model is sim's own: each core is a sim.Core, built by
// sim.NewCores over one shared LLC, DRAM channel and set of in-flight
// prefetch fills, with the single-core simulator's ROB, issue width,
// private-hierarchy Filter and counters. A one-core run therefore
// gives sim's result exactly. This package owns only the
// configuration, the interleave (event-style: advance whichever core
// has the smallest dispatch clock) and the per-core result mapping.
package multicore

import (
	"fmt"

	"resemble/internal/cache"
	"resemble/internal/mem"
	"resemble/internal/metrics"
	"resemble/internal/sim"
	"resemble/internal/trace"
)

// Core pairs one hardware context's trace with its prefetch source
// (nil for no prefetching).
type Core struct {
	Trace  *trace.Trace
	Source sim.Source
}

// Config parameterizes the multi-core run.
type Config struct {
	// Sim supplies the per-core cache geometry, timing parameters and
	// the shared-LLC/DRAM parameters (the LLC config describes the
	// single shared LLC).
	Sim sim.Config
	// RelocateCores remaps each core's physical addresses into a
	// disjoint region (core id in the high address bits), modelling
	// separate working sets; disable to model shared data.
	RelocateCores bool
}

// DefaultConfig returns the shared-LLC configuration: per-core L1/L2 as
// in sim.DefaultConfig, a shared LLC of the same total size, and a
// shared DRAM channel.
func DefaultConfig() Config {
	return Config{Sim: sim.DefaultConfig(), RelocateCores: true}
}

// CoreResult is one core's outcome.
type CoreResult struct {
	Core   int
	Result sim.Result
}

// Result aggregates a multi-core run.
type Result struct {
	PerCore []CoreResult
	// SharedLLC holds the shared cache's stats from the last core's
	// warmup boundary to the end of the run: each core's boundary
	// restarts them, so on one core they cover its measured region.
	SharedLLC cache.Stats
	// AvgIPC is the arithmetic mean of the per-core IPCs.
	AvgIPC float64
}

// WeightedSpeedup computes the standard multi-programmed metric against
// a baseline run: sum_i IPC_i / IPC_i^base / N.
func (r Result) WeightedSpeedup(base Result) float64 {
	if len(r.PerCore) == 0 || len(base.PerCore) != len(r.PerCore) {
		return 0
	}
	var sum float64
	for i := range r.PerCore {
		if b := base.PerCore[i].Result.IPC; b > 0 {
			sum += r.PerCore[i].Result.IPC / b
		}
	}
	return sum / float64(len(r.PerCore))
}

// Run simulates the cores to completion and returns per-core results.
func Run(cfg Config, cores []Core) (Result, error) {
	if len(cores) == 0 {
		return Result{}, fmt.Errorf("multicore: no cores")
	}
	if err := cfg.Sim.Validate(); err != nil {
		return Result{}, err
	}
	traces := make([]*trace.Trace, len(cores))
	srcs := make([]sim.Source, len(cores))
	offsets := make([]mem.Addr, len(cores))
	for i, c := range cores {
		if c.Trace == nil || c.Trace.Len() == 0 {
			return Result{}, fmt.Errorf("multicore: core %d has an empty trace", i)
		}
		traces[i], srcs[i] = c.Trace, c.Source
		if cfg.RelocateCores {
			// The shift is a multiple of every power-of-two set count
			// times the line size, so set indexes and tag comparisons in
			// the private caches, and with them the Filter, are unchanged.
			offsets[i] = mem.Addr(i) << 42
		}
	}
	machine := sim.NewCores(cfg.Sim, traces, srcs, offsets)
	for {
		// Advance the unfinished core with the smallest dispatch clock.
		var next *sim.Core
		for _, c := range machine {
			if !c.Done() && (next == nil || c.Clock() < next.Clock()) {
				next = c
			}
		}
		if next == nil {
			break
		}
		next.Step()
	}

	var res Result
	ipcs := make([]float64, len(machine))
	for i, c := range machine {
		r := c.Result()
		res.SharedLLC = r.Caches["LLC"]
		// Shared-LLC useful prefetches cannot be attributed per core:
		// late hits are per-core, in-cache useful counts are shared
		// (Result.SharedLLC). Per-core useful reports the late hits
		// only, and the ratios built on it are left unset.
		r.UsefulPrefetches = r.LatePrefetchHits
		r.Accuracy, r.Coverage, r.Caches = 0, 0, nil
		res.PerCore = append(res.PerCore, CoreResult{Core: i, Result: r})
		ipcs[i] = r.IPC
	}
	res.AvgIPC = metrics.Mean(ipcs)
	return res, nil
}
