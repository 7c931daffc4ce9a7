package experiments

import (
	"resemble/internal/core"
	"resemble/internal/sim"
	"resemble/internal/sources"
	"resemble/internal/trace"
)

// PrintConfig renders the configuration tables (paper Tables II, III
// and V as instantiated by this reproduction, including the documented
// scaling).
func PrintConfig(o Options) {
	o = o.withDefaults()

	o.printf("== Table II: input prefetchers ==\n")
	for _, p := range sources.TableII() {
		kind := "temporal"
		if p.Spatial() {
			kind = "spatial"
		}
		o.printf("  %-8s %s\n", p.Name(), kind)
	}

	o.printf("\n== Table III: ReSemble framework configuration ==\n")
	cc := core.DefaultConfig()
	o.printf("  address bits            %d\n", 64)
	o.printf("  block offset            %d\n", 6)
	o.printf("  page offset             %d\n", 12)
	o.printf("  state dimension S       %d\n", len(sources.Arms()))
	o.printf("  action dimension A      %d\n", len(sources.Arms())+1)
	o.printf("  hash bits (MLP)         %d\n", cc.HashBits)
	o.printf("  replay memory R         %d\n", cc.ReplayN)
	o.printf("  prefetch window W       %d\n", cc.Window)
	o.printf("  batch size              %d (paper: 256; sweeps default to %d)\n", cc.Batch, o.Batch)
	o.printf("  eps start/end/decay     %.2f / %.3f / %.0f\n", cc.EpsStart, cc.EpsEnd, cc.EpsDecay)
	o.printf("  policy interval I_p     %d\n", cc.PolicyInterval)
	o.printf("  target interval I_t     %d\n", cc.TargetInterval)
	o.printf("  hidden width H          %d\n", cc.Hidden)
	o.printf("  gamma / lr              %.2f / %.3f\n", cc.Gamma, cc.LR)

	o.printf("\n== Table V: simulation parameters (scaled 1/64, see DESIGN.md) ==\n")
	sc := sim.DefaultConfig()
	for _, c := range []struct {
		name string
		cfg  any
	}{{"L1D", sc.L1D}, {"L2", sc.L2}, {"LLC", sc.LLC}} {
		_ = c
	}
	o.printf("  core                    %d-wide OoO, %d-entry ROB\n", sc.IssueWidth, sc.ROB)
	o.printf("  L1D                     %d sets x %d ways, %d-cycle\n", sc.L1D.Sets, sc.L1D.Ways, sc.L1D.Latency)
	o.printf("  L2                      %d sets x %d ways, %d-cycle\n", sc.L2.Sets, sc.L2.Ways, sc.L2.Latency)
	o.printf("  LLC                     %d sets x %d ways, %d-cycle, %d MSHRs\n", sc.LLC.Sets, sc.LLC.Ways, sc.LLC.Latency, sc.LLC.MSHRs)
	o.printf("  DRAM                    %d-cycle latency, %d-cycle request interval\n", sc.DRAMLatency, sc.DRAMInterval)
	o.printf("  warmup                  %.0f%% of accesses\n", 100*sc.WarmupFraction)

	o.printf("\n== Workload suite (synthetic stand-ins; see DESIGN.md) ==\n")
	for _, s := range trace.Suites() {
		o.printf("  %s:", s)
		for _, w := range trace.SuiteWorkloads(s) {
			o.printf(" %s(%s)", w.Name, w.Class)
		}
		o.printf("\n")
	}
}
