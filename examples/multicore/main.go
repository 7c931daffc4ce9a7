// Multicore demonstrates the repository's extension of ReSemble to
// multi-core systems — the paper's stated future work (Section VIII).
// Four cores run one workload per pattern class over private L1/L2
// caches and a shared LLC; each core gets its own ReSemble controller,
// and the weighted speedup over the no-prefetching baseline is
// reported.
//
//	go run ./examples/multicore
package main

import (
	"fmt"
	"os"

	"resemble/internal/core"
	"resemble/internal/multicore"
	"resemble/internal/sources"
	"resemble/internal/trace"
)

func main() {
	mix := []string{"433.lbm", "471.omnetpp", "602.gcc", "gap.bfs"}
	const accesses = 40000

	build := func(withController bool) []multicore.Core {
		cores := make([]multicore.Core, len(mix))
		for i, name := range mix {
			cores[i] = multicore.Core{Trace: trace.MustLookup(name).Generate(accesses)}
			if withController {
				cores[i].Source = core.NewController(core.DefaultConfig(), sources.TableII())
			}
		}
		return cores
	}

	cfg := multicore.DefaultConfig()
	base, err := multicore.Run(cfg, build(false))
	if err != nil {
		fmt.Fprintln(os.Stderr, "multicore baseline run:", err)
		os.Exit(1)
	}
	pf, err := multicore.Run(cfg, build(true))
	if err != nil {
		fmt.Fprintln(os.Stderr, "multicore prefetching run:", err)
		os.Exit(1)
	}

	fmt.Printf("4-core mix on a shared LLC (%d accesses each):\n\n", accesses)
	fmt.Printf("%-14s %10s %10s %8s\n", "core/workload", "base IPC", "rsmbl IPC", "gain")
	for i := range mix {
		b := base.PerCore[i].Result
		p := pf.PerCore[i].Result
		fmt.Printf("%-14s %10.3f %10.3f %+7.1f%%\n", mix[i], b.IPC, p.IPC, 100*p.IPCImprovement(b))
	}
	fmt.Printf("\nweighted speedup with per-core ReSemble: %.3f\n", pf.WeightedSpeedup(base))
	fmt.Printf("shared LLC: %d accesses, hit rate %.1f%%\n",
		pf.SharedLLC.Accesses, 100*pf.SharedLLC.HitRate())
}
