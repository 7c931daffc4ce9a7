// Hybridapp demonstrates the paper's central claim on a hybrid
// application whose spatial and temporal access streams interleave at
// record granularity: different streams favour different prefetchers,
// any static choice covers only its own class, and SBP's period-based
// selection lags — only the per-access RL controller tracks the
// interleaving. The example prints the controller's dominant action per
// 2K-access window, then compares end-to-end results.
//
//	go run ./examples/hybridapp
package main

import (
	"fmt"

	"resemble/internal/core"
	"resemble/internal/sim"
	"resemble/internal/sources"
	"resemble/internal/trace"
)

func main() {
	tr := trace.MustLookup("hybrid.interleave").Generate(60000) // record-level stream interleaving
	runner := sim.NewRunner(sim.DefaultConfig())
	base, _ := runner.With(sim.WithBaseline()).Run(tr, nil)

	ctrl := core.NewController(core.DefaultConfig(), sources.TableII())
	res, _ := runner.Run(tr, ctrl)

	// Dominant action per window: watch the controller switch
	// prefetchers as phases alternate.
	names := ctrl.ActionNames()
	acts := ctrl.ActionSeries()
	const window = 2000
	fmt.Println("dominant action per 2K-access window:")
	for lo := 0; lo+window <= len(acts); lo += window {
		counts := make([]int, len(names))
		for _, a := range acts[lo : lo+window] {
			counts[a]++
		}
		best := 0
		for i, c := range counts {
			if c > counts[best] {
				best = i
			}
		}
		fmt.Printf("  window %2d: %-7s (%2d%%)\n", lo/window, names[best], 100*counts[best]/window)
	}

	// Baselines for comparison.
	fmt.Println("\nend-to-end comparison:")
	fmt.Printf("  %-10s IPC %.3f\n", "baseline", base.IPC)
	report := func(name string, r sim.Result) {
		fmt.Printf("  %-10s IPC %.3f (%+.1f%%)  acc %.1f%%  cov %.1f%%\n",
			name, r.IPC, 100*r.IPCImprovement(base), 100*r.Accuracy, 100*r.Coverage)
	}
	report("resemble", res)
	for _, name := range []string{"sbp-e", "bo", "isb"} {
		src, _ := sources.Build(name, sources.Env{})
		r, _ := runner.Run(tr, src)
		report(name, r)
	}
}
