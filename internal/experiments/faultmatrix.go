package experiments

import (
	"resemble/internal/core"
	"resemble/internal/faults"
	"resemble/internal/prefetch"
	"resemble/internal/sim"
	"resemble/internal/sources"
	"resemble/internal/trace"
)

// FaultRow is one fault class's comparison: the ensemble with
// degradation masking on, the ensemble without it, and the faulted
// prefetcher running solo.
type FaultRow struct {
	Mode        faults.Mode
	Masked      sim.Result
	Unmasked    sim.Result
	SoloFaulted sim.Result
	MaskedArms  int      // arms masked at the end of the masked run
	MaskedNames []string // names of the masked input prefetchers
}

// FaultMatrixResult holds the fault-matrix experiment outcome.
type FaultMatrixResult struct {
	Workload string
	Target   string // name of the faulted prefetcher
	Baseline sim.Result
	Healthy  sim.Result // un-faulted ensemble for reference
	BestSolo string
	BestRes  sim.Result // best healthy individual prefetcher
	Rows     []FaultRow
}

// FaultMatrix runs the graceful-degradation evaluation: the BO input
// prefetcher is broken with each deterministic fault class (stuck,
// silent, noisy) and the masked ensemble, the unmasked ensemble and
// the faulted prefetcher alone are compared against the healthy
// ensemble and the best healthy individual prefetcher.
//
// The ensemble under test is the tabular controller: its optimistic
// cold-start re-tries every arm in each unseen state, so without
// masking a broken arm pollutes the cache for the whole run — the
// worst case graceful degradation exists to fix. (The DQN's function
// approximation generalizes avoidance of a dead arm across states by
// itself; see TestMaskingDQNNeverWorse.)
func FaultMatrix(o Options) (*FaultMatrixResult, error) {
	o = o.withDefaults()
	const workload = "433.lbm"
	w, err := trace.Lookup(workload)
	if err != nil {
		return nil, err
	}
	simCfg := sim.DefaultConfig()
	// The healthy ensemble and the solos are the reference points, so
	// the experiment's fault options must not wrap them.
	healthy := Options{Batch: o.Batch, Seed: o.Seed, FixedFrac: o.FixedFrac}

	// The faulted input: BO, the dominant spatial arm on this workload —
	// breaking the arm the ensemble leans on is the worst case for an
	// unmasked controller.
	res := &FaultMatrixResult{Workload: workload, Target: sources.Arms()[0]}
	breakBO := func(mode faults.Mode) []prefetch.Prefetcher {
		pfs := sources.TableII()
		pfs[0] = faults.Wrap(pfs[0], faults.Config{Mode: mode, Seed: 97 + o.Seed})
		return pfs
	}

	// Task layout in serial execution order: baseline, healthy ensemble,
	// the four solos, then (masked, unmasked, solo-faulted) per mode.
	solos := sources.Arms()
	set := EvaluationSources()
	modes := []faults.Mode{faults.Stuck, faults.Silent, faults.Noisy}
	modeBase := 2 + len(solos)
	results := make([]sim.Result, modeBase+3*len(modes))
	maskedCtrls := make([]*core.TabularController, len(modes))
	err = o.forEach(len(results), func(i int, o Options) {
		tr := o.traceFor(w)
		switch {
		case i == 0:
			results[i] = o.run(simCfg, tr, nil)
		case i == 1:
			results[i] = o.run(simCfg, tr, set.Build("resemble-t", healthy))
		case i < modeBase:
			results[i] = o.run(simCfg, tr, set.Build(solos[i-2], healthy))
		default:
			mode := modes[(i-modeBase)/3]
			switch (i - modeBase) % 3 {
			case 0:
				masked := core.NewTabularController(o.controllerConfig().WithMasking(), breakBO(mode))
				maskedCtrls[(i-modeBase)/3] = masked
				results[i] = o.run(simCfg, tr, masked)
			case 1:
				results[i] = o.run(simCfg, tr, core.NewTabularController(o.controllerConfig(), breakBO(mode)))
			case 2:
				results[i] = o.run(simCfg, tr, sim.FromPrefetcher(
					faults.Wrap(sources.Set(res.Target)[0], faults.Config{Mode: mode, Seed: 97 + o.Seed}), sources.SoloDegree))
			}
		}
	})
	if err != nil {
		return nil, err
	}

	res.Baseline = results[0]
	res.Healthy = results[1]
	for si, solo := range solos {
		r := results[2+si]
		if res.BestSolo == "" || r.IPC > res.BestRes.IPC {
			res.BestSolo, res.BestRes = solo, r
		}
	}
	for mi, mode := range modes {
		row := FaultRow{
			Mode:        mode,
			Masked:      results[modeBase+3*mi],
			Unmasked:    results[modeBase+3*mi+1],
			SoloFaulted: results[modeBase+3*mi+2],
		}
		if masked := maskedCtrls[mi]; masked != nil {
			row.MaskedArms = masked.MaskedArms()
			for i, name := range sources.Arms() {
				if masked.ArmMasked(i) {
					row.MaskedNames = append(row.MaskedNames, name)
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}

	render := func(label string, r sim.Result) {
		o.printf("  %-14s acc=%5.1f%% cov=%5.1f%% MPKI=%6.2f IPC=%.3f (%+.1f%% vs base)\n",
			label, 100*r.Accuracy, 100*r.Coverage, r.MPKI, r.IPC, 100*r.IPCImprovement(res.Baseline))
	}
	o.printf("Fault matrix — %s, faulted input: %s\n", workload, res.Target)
	render("healthy", res.Healthy)
	render("best solo ("+res.BestSolo+")", res.BestRes)
	for _, row := range res.Rows {
		o.printf("fault=%s\n", row.Mode)
		render("masked", row.Masked)
		render("unmasked", row.Unmasked)
		render("solo faulted", row.SoloFaulted)
		o.printf("  arms masked at end of run: %d %v\n", row.MaskedArms, row.MaskedNames)
	}
	return res, nil
}
