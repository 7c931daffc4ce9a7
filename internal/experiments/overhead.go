package experiments

import (
	"resemble/internal/core"
	"resemble/internal/metrics"
	"resemble/internal/sim"
	"resemble/internal/sources"
	"resemble/internal/trace"
)

// Table4Result carries the Table IV model sizes, with the tokenized
// table rows based on unique-state counts measured on the live suite.
type Table4Result struct {
	Sizes []core.ModelSize
	// MeasuredUniqueStates maps hash bits to the unique states observed
	// across the evaluation workloads.
	MeasuredUniqueStates map[uint]int
}

// Table4 reproduces the paper's Table IV: MLP parameter count, direct
// Q-table sizes at 4- and 8-bit hashing, and tokenized Q-table sizes
// using unique-state counts measured on the synthetic suite.
func Table4(o Options) (Table4Result, error) {
	o = o.withDefaults()
	res := Table4Result{MeasuredUniqueStates: map[uint]int{}}
	// Measure unique states with short tabular runs over the suite.
	allBits := []uint{4, 8}
	workloads := trace.EvaluationWorkloads()
	counts := make([]int, len(allBits)*len(workloads))
	err := o.forEach(len(counts), func(i int, o Options) {
		bits, w := allBits[i/len(workloads)], workloads[i%len(workloads)]
		cfg := o.controllerConfig()
		cfg.TableHashBits = bits
		ctrl := core.NewTabularController(cfg, sources.TableII())
		o.Accesses /= 4 // short runs suffice for state counting
		tr := o.traceFor(w)
		o.run(sim.DefaultConfig(), tr, ctrl)
		counts[i] = ctrl.UniqueStates()
	})
	if err != nil {
		return res, err
	}
	for bi, bits := range allBits {
		total := 0
		for wi := range workloads {
			total += counts[bi*len(workloads)+wi]
		}
		res.MeasuredUniqueStates[bits] = total
	}
	const s, a, h = 4, 5, 100
	res.Sizes = core.ModelSizes(s, a, h, []uint{4, 8}, res.MeasuredUniqueStates)
	o.printf("== Table IV: model sizes ==\n")
	o.printf("%-16s %-22s %-10s %14s\n", "model", "expression", "config", "#param/entries")
	for _, ms := range res.Sizes {
		o.printf("%-16s %-22s %-10s %14.4g\n", ms.Model, ms.Expression, ms.Config, ms.Entries)
	}
	o.printf("(tokenized rows use unique states measured on this suite: B=4 -> %d, B=8 -> %d)\n",
		res.MeasuredUniqueStates[4], res.MeasuredUniqueStates[8])
	return res, nil
}

// Table7 prints the inference-latency decomposition: Equation 14's
// formula evaluation side by side with the paper's published Table VII.
func Table7(o Options) (formula, paper core.LatencyEstimate) {
	o = o.withDefaults()
	formula = core.EstimateLatency(64, 16, 4, 100, 5)
	paper = core.PaperTable7()
	o.printf("== Table VII: inference latency (cycles) ==\n")
	o.printf("%-22s %8s %8s\n", "phase", "Eq 14", "paper")
	rows := []struct {
		name string
		f, p int
	}{
		{"hash T_h", formula.HashCycles, paper.HashCycles},
		{"norm T_n", formula.NormCycles, paper.NormCycles},
		{"hidden MM T_mm_h", formula.HiddenMMCycles, paper.HiddenMMCycles},
		{"output MM T_mm_o", formula.OutputMMCycles, paper.OutputMMCycles},
		{"activations 2×T_av", formula.ActivationCycle, paper.ActivationCycle},
		{"action T_qv", formula.ActionCycles, paper.ActionCycles},
		{"total", formula.Total, paper.Total},
	}
	for _, r := range rows {
		o.printf("%-22s %8d %8d\n", r.name, r.f, r.p)
	}
	return formula, paper
}

// Table8 prints the storage-overhead estimate.
func Table8(o Options) core.StorageEstimate {
	o = o.withDefaults()
	est := core.EstimateStorage(4, 100, 5, 2000, 256)
	o.printf("== Table VIII: storage overhead ==\n")
	o.printf("MLP (2 networks, 16-bit fixed point, on-chip): %.1f KB\n", float64(est.MLPBytes)/1024)
	o.printf("Replay memory (2K transitions + 256-entry prefetch window, off-chip): %.1f KB\n",
		float64(est.ReplayBytes)/1024)
	return est
}

// Fig11Point is one latency-sweep measurement.
type Fig11Point struct {
	Latency        uint64
	HighThroughput bool
	AvgAccuracy    float64
	AvgCoverage    float64
	AvgIPCGain     float64
}

// fig11Workloads is the latency-sensitivity subset: one representative
// per pattern class, keeping the sweep tractable.
func fig11Workloads() []trace.Workload {
	return []trace.Workload{
		trace.MustLookup("433.lbm"),
		trace.MustLookup("471.omnetpp"),
		trace.MustLookup("602.gcc"),
		trace.MustLookup("621.wrf"),
	}
}

// Fig11 sweeps the controller inference latency from 0 to 40 cycles in
// high- and low-throughput modes (paper Figure 11) with the MLP
// controller.
func Fig11(o Options) ([]Fig11Point, error) {
	o = o.withDefaults()
	modes := []bool{true, false}
	lats := []uint64{0, 10, 20, 30, 40}
	workloads := fig11Workloads()
	// Two tasks per (mode, latency, workload) cell: baseline then MLP.
	per := 2 * len(workloads)
	results := make([]sim.Result, len(modes)*len(lats)*per)
	err := o.forEach(len(results), func(i int, o Options) {
		cell := i / per
		highTP, lat := modes[cell/len(lats)], lats[cell%len(lats)]
		w := workloads[(i%per)/2]
		simCfg := sim.DefaultConfig()
		simCfg.PrefetchLatency = lat
		simCfg.LowThroughput = !highTP
		var src sim.Source
		if i%2 == 1 {
			src = mustBuild("resemble", sources.Env{Config: o.controllerConfig()})
		}
		results[i] = o.run(simCfg, o.traceFor(w), src)
	})
	if err != nil {
		return nil, err
	}

	o.printf("== Fig 11: performance vs prefetch latency ==\n")
	o.printf("%-8s %-8s %8s %8s %8s\n", "latency", "TP", "acc", "cov", "dIPC")
	var out []Fig11Point
	for mi, highTP := range modes {
		for li, lat := range lats {
			var accs, covs, gains []float64
			cell := mi*len(lats) + li
			for wi := range workloads {
				base := results[cell*per+2*wi]
				r := results[cell*per+2*wi+1]
				accs = append(accs, r.Accuracy)
				covs = append(covs, r.Coverage)
				gains = append(gains, r.IPCImprovement(base))
			}
			p := Fig11Point{
				Latency:        lat,
				HighThroughput: highTP,
				AvgAccuracy:    metrics.Mean(accs),
				AvgCoverage:    metrics.Mean(covs),
				AvgIPCGain:     metrics.Mean(gains),
			}
			out = append(out, p)
			tp := "high"
			if !highTP {
				tp = "low"
			}
			o.printf("%-8d %-8s %7.1f%% %7.1f%% %+7.1f%%\n",
				p.Latency, tp, 100*p.AvgAccuracy, 100*p.AvgCoverage, 100*p.AvgIPCGain)
		}
	}
	return out, nil
}
