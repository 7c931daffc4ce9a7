package experiments

import (
	"math"

	"resemble/internal/metrics"
	"resemble/internal/sim"
	"resemble/internal/sources"
	"resemble/internal/trace"
)

// maxLag is the autocorrelation horizon of the global analysis (the
// paper's Figure 1 plots lags up to ~40).
const maxLag = 40

// perPCMaxLag is the horizon of the per-PC analysis; per-PC streams can
// have long cycles (a pointer chain repeats at its length), so Figure
// 1b's grouped analysis looks further out.
const perPCMaxLag = 1024

// ACResult is one workload's autocorrelation summary.
type ACResult struct {
	Workload string
	// AC is the global (Fig 1a) or mean per-PC (Fig 1b) autocorrelation
	// of the line-delta series.
	AC []float64
	// Significant lists the lags beyond the white-noise bound.
	Significant []int
	// MaxAbsAC is max_{lag>=1} |AC[lag]| — the headline periodicity
	// signal.
	MaxAbsAC float64
}

// clampDeltas bounds the delta magnitudes before autocorrelation:
// rare region-restart jumps are orders of magnitude larger than the
// pattern deltas and would otherwise own the entire variance, masking
// the periodic structure the analysis is after.
func clampDeltas(d []float64) []float64 {
	const bound = 256 // lines
	out := make([]float64, len(d))
	for i, v := range d {
		switch {
		case v > bound:
			v = bound
		case v < -bound:
			v = -bound
		}
		out[i] = v
	}
	return out
}

func summarizeAC(workload string, ac []float64, n int) ACResult {
	res := ACResult{Workload: workload, AC: ac, Significant: metrics.SignificantLags(ac, n)}
	for lag := 1; lag < len(ac); lag++ {
		if v := math.Abs(ac[lag]); v > res.MaxAbsAC {
			res.MaxAbsAC = v
		}
	}
	return res
}

// Fig1a computes the autocorrelation of each motivation workload's
// line-delta series (paper Figure 1a). Address sequences trend (region
// bases dominate), so periodicity is analyzed on the deltas.
func Fig1a(o Options) ([]ACResult, error) {
	o = o.withDefaults()
	o.printf("== Fig 1a: autocorrelation of memory traces (delta series) ==\n")
	var out []ACResult
	for _, w := range trace.MotivationWorkloads() {
		tr := o.traceFor(w)
		deltas := clampDeltas(tr.DeltaSeries())
		ac := metrics.Autocorrelation(deltas, maxLag)
		res := summarizeAC(w.Name, ac, len(deltas))
		out = append(out, res)
		o.printf("%-15s sigLags=%-3d maxAC=%.2f  ac[1..8]=", w.Name, len(res.Significant), res.MaxAbsAC)
		for lag := 1; lag <= 8; lag++ {
			o.printf(" %+.2f", ac[lag])
		}
		o.printf("\n")
	}
	return out, nil
}

// Fig1b computes the same analysis after grouping accesses by PC
// (paper Figure 1b): the autocorrelation of every PC's own delta
// subsequence, averaged weighted by subsequence length. The paper's
// observation is that PC grouping strengthens the temporal workloads'
// correlations (their per-PC streams are periodic) while the
// multi-stride spatial workload collapses to trivial constant deltas.
func Fig1b(o Options) ([]ACResult, error) {
	o = o.withDefaults()
	o.printf("== Fig 1b: autocorrelation grouped by PC (per-PC delta series) ==\n")
	var out []ACResult
	for _, w := range trace.MotivationWorkloads() {
		tr := o.traceFor(w)
		acc := make([]float64, perPCMaxLag+1)
		var weight float64
		var total int
		for _, g := range tr.PCGroups() {
			deltas := clampDeltas(g.DeltaSeries())
			if len(deltas) < 8 {
				continue
			}
			ac := metrics.Autocorrelation(deltas, perPCMaxLag)
			for i := range acc {
				acc[i] += ac[i] * float64(len(deltas))
			}
			weight += float64(len(deltas))
			total += len(deltas)
		}
		if weight > 0 {
			for i := range acc {
				acc[i] /= weight
			}
		}
		res := summarizeAC(w.Name, acc, total)
		out = append(out, res)
		o.printf("%-15s sigLags=%-3d maxAC=%.2f\n", w.Name, len(res.Significant), res.MaxAbsAC)
	}
	return out, nil
}

// Fig1cRow is one (workload, prefetcher) outcome of Figure 1c.
type Fig1cRow struct {
	Workload       string
	Prefetcher     string
	Accuracy       float64
	Coverage       float64
	MPKIReduction  float64 // fraction of baseline MPKI removed
	IPCImprovement float64
}

// Fig1c compares BO and ISB on the motivation workloads (paper Figure
// 1c: accuracy, coverage, MPKI reduction, IPC improvement).
func Fig1c(o Options) ([]Fig1cRow, error) {
	o = o.withDefaults()
	simCfg := sim.DefaultConfig()
	workloads := trace.MotivationWorkloads()
	pfs := []string{"bo", "isb"}
	per := 1 + len(pfs) // baseline + one run per prefetcher
	results := make([]sim.Result, len(workloads)*per)
	err := o.forEach(len(results), func(i int, o Options) {
		tr := o.traceFor(workloads[i/per])
		var src sim.Source
		if k := i % per; k > 0 {
			src = mustBuild(pfs[k-1], sources.Env{})
		}
		results[i] = o.run(simCfg, tr, src)
	})
	if err != nil {
		return nil, err
	}

	o.printf("== Fig 1c: BO vs ISB on the motivation workloads ==\n")
	o.printf("%-15s %-6s %8s %8s %8s %8s\n", "workload", "pf", "acc", "cov", "dMPKI", "dIPC")
	var out []Fig1cRow
	for wi, w := range workloads {
		base := results[wi*per]
		for pi, pf := range pfs {
			r := results[wi*per+1+pi]
			row := Fig1cRow{
				Workload:       w.Name,
				Prefetcher:     pf,
				Accuracy:       r.Accuracy,
				Coverage:       r.Coverage,
				IPCImprovement: r.IPCImprovement(base),
			}
			if base.MPKI > 0 {
				row.MPKIReduction = (base.MPKI - r.MPKI) / base.MPKI
			}
			out = append(out, row)
			o.printf("%-15s %-6s %7.1f%% %7.1f%% %7.1f%% %+7.1f%%\n",
				row.Workload, row.Prefetcher, 100*row.Accuracy, 100*row.Coverage,
				100*row.MPKIReduction, 100*row.IPCImprovement)
		}
	}
	return out, nil
}
