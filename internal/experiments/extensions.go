package experiments

import (
	"resemble/internal/core"
	"resemble/internal/metrics"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/bo"
	"resemble/internal/prefetch/domino"
	"resemble/internal/prefetch/isb"
	"resemble/internal/prefetch/spp"
	"resemble/internal/sim"
	"resemble/internal/sources"
	"resemble/internal/trace"
)

// BudgetPoint is one budget-scale measurement of the ensemble.
type BudgetPoint struct {
	// Scale divides/multiplies the input prefetchers' table budgets
	// (0.25, 1, 4).
	Scale float64
	// AvgIPCGain is the mean ReSemble IPC improvement over the
	// motivation workloads at this budget.
	AvgIPCGain  float64
	AvgCoverage float64
}

// budgetPrefetchers builds the four input prefetchers with their
// metadata budgets scaled by s.
func budgetPrefetchers(s float64) []prefetch.Prefetcher {
	scale := func(base int) int {
		v := int(float64(base) * s)
		if v < 8 {
			v = 8
		}
		return v
	}
	return []prefetch.Prefetcher{
		bo.New(bo.Config{RRSize: scale(1024)}),
		spp.New(spp.Config{STSize: scale(256), PTSize: scale(512), FilterSize: scale(1024)}),
		isb.New(isb.Config{AMCSize: scale(1 << 15)}),
		domino.New(domino.Config{LogSize: scale(1 << 16), IndexSize: scale(1 << 15)}),
	}
}

// BudgetSensitivity studies the framework's sensitivity to the input
// prefetchers' hardware budgets — the paper's stated future work
// ("sensitivity to varying budgets", Section VIII). Table budgets are
// scaled from a quarter to four times the Table II configuration.
func BudgetSensitivity(o Options) ([]BudgetPoint, error) {
	o = o.withDefaults()
	simCfg := sim.DefaultConfig()
	scales := []float64{0.25, 1, 4}
	workloads := trace.MotivationWorkloads()
	per := 2 * len(workloads) // baseline + ensemble per workload
	results := make([]sim.Result, len(scales)*per)
	err := o.forEach(len(results), func(i int, o Options) {
		s, w := scales[i/per], workloads[(i%per)/2]
		var src sim.Source
		if i%2 == 1 {
			src = core.NewController(o.controllerConfig(), budgetPrefetchers(s))
		}
		results[i] = o.run(simCfg, o.traceFor(w), src)
	})
	if err != nil {
		return nil, err
	}

	o.printf("== Budget sensitivity (future work): ReSemble vs input budgets ==\n")
	o.printf("%-8s %10s %10s\n", "scale", "dIPC", "coverage")
	var out []BudgetPoint
	for si, s := range scales {
		var gains, covs []float64
		for wi := range workloads {
			base := results[si*per+2*wi]
			r := results[si*per+2*wi+1]
			gains = append(gains, r.IPCImprovement(base))
			covs = append(covs, r.Coverage)
		}
		p := BudgetPoint{Scale: s, AvgIPCGain: metrics.Mean(gains), AvgCoverage: metrics.Mean(covs)}
		out = append(out, p)
		o.printf("%-8.2f %+9.1f%% %9.1f%%\n", p.Scale, 100*p.AvgIPCGain, 100*p.AvgCoverage)
	}
	return out, nil
}

// TaxonomyRow is one prefetcher's suite-wide result in the extended
// taxonomy comparison.
type TaxonomyRow struct {
	Prefetcher  string
	Class       string
	AvgAccuracy float64
	AvgCoverage float64
	AvgIPCGain  float64
}

// Taxonomy compares every implemented prefetcher (the paper's Table I
// taxonomy plus the NN prefetcher) head to head across the evaluation
// suite — an extension beyond the paper's four-input configuration.
func Taxonomy(o Options) ([]TaxonomyRow, error) {
	o = o.withDefaults()
	o.printf("== Extended taxonomy: all implemented prefetchers ==\n")
	o.printf("%-9s %-9s %8s %8s %8s\n", "pf", "class", "acc", "cov", "dIPC")
	// Every implemented prefetcher runs at degree 4, deeper than the
	// evaluation's solo degree.
	entries := []struct{ name, class string }{
		{"bo", "spatial"}, {"spp", "spatial"}, {"vldp", "spatial"}, {"stride", "spatial"}, {"ghb", "spatial"},
		{"isb", "temporal"}, {"domino", "temporal"}, {"stms", "temporal"},
		{"stems", "spa-temp"}, {"voyager", "neural"},
	}
	// A representative cross-section keeps the LSTM runtime in check.
	workloads := []string{"433.lbm", "433.milc", "471.omnetpp", "429.mcf", "602.gcc"}
	simCfg := sim.DefaultConfig()
	per := 2 * len(workloads) // baseline + prefetcher per workload
	results := make([]sim.Result, len(entries)*per)
	err := o.forEach(len(results), func(i int, o Options) {
		e := entries[i/per]
		w := trace.MustLookup(workloads[(i%per)/2])
		var src sim.Source
		if i%2 == 1 {
			src = mustBuild(e.name, sources.Env{Degree: 4})
		}
		results[i] = o.run(simCfg, o.traceFor(w), src)
	})
	if err != nil {
		return nil, err
	}

	var out []TaxonomyRow
	for ei, e := range entries {
		var accs, covs, gains []float64
		for wi := range workloads {
			base := results[ei*per+2*wi]
			r := results[ei*per+2*wi+1]
			accs = append(accs, r.Accuracy)
			covs = append(covs, r.Coverage)
			gains = append(gains, r.IPCImprovement(base))
		}
		row := TaxonomyRow{
			Prefetcher:  e.name,
			Class:       e.class,
			AvgAccuracy: metrics.Mean(accs),
			AvgCoverage: metrics.Mean(covs),
			AvgIPCGain:  metrics.Mean(gains),
		}
		out = append(out, row)
		o.printf("%-9s %-9s %7.1f%% %7.1f%% %+7.1f%%\n",
			row.Prefetcher, row.Class, 100*row.AvgAccuracy, 100*row.AvgCoverage, 100*row.AvgIPCGain)
	}
	return out, nil
}
