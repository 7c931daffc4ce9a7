package experiments

import (
	"resemble/internal/multicore"
	"resemble/internal/sources"
	"resemble/internal/trace"
)

// MulticoreResult summarizes the multi-core extension study (the
// paper's stated future work): a 4-core mix with one workload per
// pattern class, comparing no prefetching, per-core SBP(E), and
// per-core ReSemble controllers on the shared LLC.
type MulticoreResult struct {
	Mix []string
	// Weighted speedups over the no-prefetch baseline.
	SBPSpeedup      float64
	ResembleSpeedup float64
	// Per-core ReSemble IPC improvements.
	PerCoreGain []float64
}

// multicoreMix is the 4-core workload mix: spatial, temporal, hybrid
// and irregular.
func multicoreMix() []string {
	return []string{"433.lbm", "471.omnetpp", "602.gcc", "gap.bfs"}
}

// Multicore runs the multi-core extension experiment.
func Multicore(o Options) (MulticoreResult, error) {
	o = o.withDefaults()
	mix := multicoreMix()
	res := MulticoreResult{Mix: mix}
	mcfg := multicore.DefaultConfig()

	// Every core runs its own copy of the configuration's source.
	build := func(o Options, source string) []multicore.Core {
		cores := make([]multicore.Core, len(mix))
		for i, name := range mix {
			cores[i] = multicore.Core{
				Trace:  o.traceFor(trace.MustLookup(name)),
				Source: mustBuild(source, sources.Env{Config: o.controllerConfig()}),
			}
		}
		return cores
	}

	// The three system configurations are independent simulations; run
	// them through the pool (cores within one configuration share an LLC
	// and stay sequential inside multicore.Run).
	configs := []string{sources.None, "sbp-e", "resemble"}
	outs := make([]multicore.Result, len(configs))
	errs := make([]error, len(configs))
	if err := o.forEach(len(configs), func(i int, o Options) {
		outs[i], errs[i] = multicore.Run(mcfg, build(o, configs[i]))
	}); err != nil {
		return res, err
	}
	for _, err := range errs {
		if err != nil {
			return res, err
		}
	}
	base, withSBP, withRes := outs[0], outs[1], outs[2]

	res.SBPSpeedup = withSBP.WeightedSpeedup(base)
	res.ResembleSpeedup = withRes.WeightedSpeedup(base)
	for i := range withRes.PerCore {
		b := base.PerCore[i].Result.IPC
		var gain float64
		if b > 0 {
			gain = (withRes.PerCore[i].Result.IPC - b) / b
		}
		res.PerCoreGain = append(res.PerCoreGain, gain)
	}

	o.printf("== Multicore extension: 4 cores, shared LLC (future work, Section VIII) ==\n")
	o.printf("mix: %v\n", mix)
	o.printf("%-24s %8s\n", "configuration", "WS")
	o.printf("%-24s %8.3f\n", "per-core SBP(E)", res.SBPSpeedup)
	o.printf("%-24s %8.3f\n", "per-core ReSemble", res.ResembleSpeedup)
	o.printf("per-core ReSemble dIPC:")
	for i, g := range res.PerCoreGain {
		o.printf(" %s=%+.1f%%", mix[i], 100*g)
	}
	o.printf("\n")
	return res, nil
}
