package experiments

import (
	"strconv"

	"resemble/internal/core"
	"resemble/internal/prefetch"
	"resemble/internal/sim"
	"resemble/internal/sources"
	"resemble/internal/trace"
)

// AblationRow is one configuration point of the design-choice study.
type AblationRow struct {
	Study string
	Label string
	IPC   float64
	Gain  float64
	Acc   float64
	Cov   float64
}

// Ablations sweeps the design choices Section IV motivates — reward
// window W, replay capacity, hidden width, hash bits, ε decay, target
// interval, ensemble width — each on the phase-hybrid workload. The
// same sweeps are exposed as benchmarks in ablation_bench_test.go.
func Ablations(o Options) ([]AblationRow, error) {
	o = o.withDefaults()
	type spec struct {
		study, label string
		mutate       func(*core.Config)
		pfs          func() []prefetch.Prefetcher
	}
	var specs []spec
	for _, wnd := range []int{64, 256, 1024} {
		wnd := wnd
		specs = append(specs, spec{"window", strconv.Itoa(wnd), func(c *core.Config) { c.Window = wnd }, nil})
	}
	for _, n := range []int{500, 2000, 8000} {
		n := n
		specs = append(specs, spec{"replay", strconv.Itoa(n), func(c *core.Config) { c.ReplayN = n }, nil})
	}
	for _, h := range []int{25, 100, 400} {
		h := h
		specs = append(specs, spec{"hidden", strconv.Itoa(h), func(c *core.Config) { c.Hidden = h }, nil})
	}
	for _, b := range []uint{8, 16, 32} {
		b := b
		specs = append(specs, spec{"hashbits", strconv.Itoa(int(b)), func(c *core.Config) { c.HashBits = b }, nil})
	}
	for _, d := range []float64{20, 80, 640} {
		d := d
		specs = append(specs, spec{"epsdecay", strconv.Itoa(int(d)), func(c *core.Config) { c.EpsDecay = d }, nil})
	}
	for _, it := range []int{5, 20, 200} {
		it := it
		specs = append(specs, spec{"targetIt", strconv.Itoa(it), func(c *core.Config) { c.TargetInterval = it }, nil})
	}
	specs = append(specs,
		spec{"width", "4pf", nil, sources.TableII},
		spec{"width", "5pf", nil, FivePrefetchers})

	w := trace.MustLookup("602.gcc")
	simCfg := sim.DefaultConfig()
	// Task 0 is the no-prefetch baseline; tasks 1..len(specs) follow the
	// serial sweep order.
	results := make([]sim.Result, 1+len(specs))
	err := o.forEach(len(results), func(i int, o Options) {
		tr := o.traceFor(w)
		if i == 0 {
			results[0] = o.run(simCfg, tr, nil)
			return
		}
		s := specs[i-1]
		cfg := o.controllerConfig()
		if s.mutate != nil {
			s.mutate(&cfg)
		}
		build := s.pfs
		if build == nil {
			build = sources.TableII
		}
		results[i] = o.run(simCfg, tr, core.NewController(cfg, build()))
	})
	if err != nil {
		return nil, err
	}

	o.printf("== Ablations: design-choice sensitivity on 602.gcc ==\n")
	o.printf("%-10s %-10s %8s %8s %8s\n", "study", "config", "dIPC", "acc", "cov")
	base := results[0]
	var out []AblationRow
	for i, s := range specs {
		r := results[1+i]
		row := AblationRow{
			Study: s.study, Label: s.label,
			IPC: r.IPC, Gain: r.IPCImprovement(base), Acc: r.Accuracy, Cov: r.Coverage,
		}
		out = append(out, row)
		o.printf("%-10s %-10s %+7.1f%% %7.1f%% %7.1f%%\n",
			row.Study, row.Label, 100*row.Gain, 100*row.Acc, 100*row.Cov)
	}
	return out, nil
}
