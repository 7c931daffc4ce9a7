package experiments

import (
	"resemble/internal/core"
	"resemble/internal/metrics"
	"resemble/internal/sim"
	"resemble/internal/sources"
	"resemble/internal/trace"
)

// Fig12Row is one workload's outcome in the NN-prefetcher study.
type Fig12Row struct {
	Workload string
	// IPC improvement of: Voyager alone, the ReSemble ensemble with
	// Voyager as an input (Domino swapped out), and the Section V
	// ensemble without Voyager.
	VoyagerAlone    float64
	EnsembleVoyager float64
	EnsemblePlain   float64
}

// Fig12Result carries the per-case rows plus the geometric-mean
// summary the paper reports.
type Fig12Result struct {
	Rows []Fig12Row
	// Geomean IPC ratios converted back to improvements.
	GeoVoyagerAlone    float64
	GeoEnsembleVoyager float64
	GeoEnsemblePlain   float64
}

// fig12Workloads is the case set: spatial, temporal and hybrid
// representatives (the paper shows 433.milc and other cases plus the
// geometric mean).
func fig12Workloads() []trace.Workload {
	return []trace.Workload{
		trace.MustLookup("433.milc"),
		trace.MustLookup("471.omnetpp"),
		trace.MustLookup("429.mcf"),
		trace.MustLookup("602.gcc"),
	}
}

// Fig12 reproduces the Section VI-B experiment: ReSemble with the
// LSTM-based Voyager stand-in replacing Domino, compared against
// Voyager alone and the plain four-prefetcher ensemble.
func Fig12(o Options) (Fig12Result, error) {
	o = o.withDefaults()
	var res Fig12Result
	simCfg := sim.DefaultConfig()
	workloads := fig12Workloads()
	const per = 4 // baseline, voyager alone, ensemble+voyager, plain ensemble
	results := make([]sim.Result, len(workloads)*per)
	err := o.forEach(len(results), func(i int, o Options) {
		tr := o.traceFor(workloads[i/per])
		var src sim.Source
		switch i % per {
		case 1:
			src = mustBuild("voyager", sources.Env{})
		case 2:
			src = core.NewController(o.controllerConfig(), VoyagerPrefetchers())
		case 3:
			src = mustBuild("resemble", sources.Env{Config: o.controllerConfig()})
		}
		results[i] = o.run(simCfg, tr, src)
	})
	if err != nil {
		return res, err
	}

	o.printf("== Fig 12: ReSemble with an NN (Voyager-like) input prefetcher ==\n")
	o.printf("%-15s %12s %12s %12s\n", "workload", "voyager", "resemble+V", "resemble")
	var rA, rV, rP []float64
	for wi, w := range workloads {
		base := results[wi*per]
		alone, withV, plain := results[wi*per+1], results[wi*per+2], results[wi*per+3]

		row := Fig12Row{
			Workload:        w.Name,
			VoyagerAlone:    alone.IPCImprovement(base),
			EnsembleVoyager: withV.IPCImprovement(base),
			EnsemblePlain:   plain.IPCImprovement(base),
		}
		res.Rows = append(res.Rows, row)
		if base.IPC > 0 {
			rA = append(rA, alone.IPC/base.IPC)
			rV = append(rV, withV.IPC/base.IPC)
			rP = append(rP, plain.IPC/base.IPC)
		}
		o.printf("%-15s %+11.1f%% %+11.1f%% %+11.1f%%\n",
			row.Workload, 100*row.VoyagerAlone, 100*row.EnsembleVoyager, 100*row.EnsemblePlain)
	}
	res.GeoVoyagerAlone = metrics.GeoMean(rA) - 1
	res.GeoEnsembleVoyager = metrics.GeoMean(rV) - 1
	res.GeoEnsemblePlain = metrics.GeoMean(rP) - 1
	o.printf("%-15s %+11.1f%% %+11.1f%% %+11.1f%%  (geometric mean)\n",
		"geomean", 100*res.GeoVoyagerAlone, 100*res.GeoEnsembleVoyager, 100*res.GeoEnsemblePlain)
	return res, nil
}
