package experiments

import (
	"resemble/internal/core"
	"resemble/internal/metrics"
	"resemble/internal/sim"
	"resemble/internal/sources"
	"resemble/internal/trace"
)

// rewardWindow is the paper's reward aggregation window (rewards are
// summed per 1K LLC accesses).
const rewardWindow = 1000

// ModelVariant identifies one controller configuration from the
// learning-performance study (Table VI, Figures 6–7).
type ModelVariant struct {
	Name  string // "mlp", "tab4", "tab8", with optional "+pc"
	Tab   bool
	Bits  uint
	UsePC bool
}

// LearningVariants returns the six configurations of Table VI.
func LearningVariants() []ModelVariant {
	return []ModelVariant{
		{Name: "tab4", Tab: true, Bits: 4},
		{Name: "tab8", Tab: true, Bits: 8},
		{Name: "mlp"},
		{Name: "tab4+pc", Tab: true, Bits: 4, UsePC: true},
		{Name: "tab8+pc", Tab: true, Bits: 8, UsePC: true},
		{Name: "mlp+pc", UsePC: true},
	}
}

// seriesController is the common surface of both controller variants.
type seriesController interface {
	sim.Source
	RewardSeries() []float64
	ActionSeries() []int8
	ActionNames() []string
}

// buildVariant instantiates a controller for a model variant.
func buildVariant(o Options, v ModelVariant) seriesController {
	cfg := o.controllerConfig()
	cfg.UsePC = v.UsePC
	if v.Tab {
		cfg.TableHashBits = v.Bits
		return core.NewTabularController(cfg, sources.TableII())
	}
	return core.NewController(cfg, sources.TableII())
}

// runVariant simulates a controller variant on one workload and returns
// the controller (holding its reward/action series) plus the result.
func runVariant(o Options, w trace.Workload, v ModelVariant) (seriesController, sim.Result) {
	tr := o.traceFor(w)
	ctrl := buildVariant(o, v)
	res := o.run(sim.DefaultConfig(), tr, ctrl)
	return ctrl, res
}

// Table6Row is one (variant, suite) average-reward cell.
type Table6Row struct {
	Variant string
	Suite   string
	// AvgReward is the mean reward sum per 1K-access window, averaged
	// over the suite's workloads.
	AvgReward float64
}

// Table6 reproduces the paper's Table VI: average rewards of 1K-access
// windows for the six model variants over the SPEC06, SPEC17 and GAP
// suites.
func Table6(o Options) ([]Table6Row, error) {
	o = o.withDefaults()
	suites := []string{"SPEC06", "SPEC17", "GAP"}
	variants := LearningVariants()
	type cell struct {
		v ModelVariant
		w trace.Workload
	}
	var tasks []cell
	for _, v := range variants {
		for _, suite := range suites {
			for _, w := range trace.SuiteWorkloads(suite) {
				tasks = append(tasks, cell{v: v, w: w})
			}
		}
	}
	vals := make([]float64, len(tasks))
	err := o.forEach(len(tasks), func(i int, o Options) {
		ctrl, _ := runVariant(o, tasks[i].w, tasks[i].v)
		sums := metrics.WindowSums(ctrl.RewardSeries(), rewardWindow)
		vals[i] = metrics.Mean(sums)
	})
	if err != nil {
		return nil, err
	}

	o.printf("== Table VI: average rewards of 1K-access windows ==\n")
	o.printf("%-10s", "model")
	for _, s := range suites {
		o.printf(" %10s", s)
	}
	o.printf("\n")
	var out []Table6Row
	i := 0
	for _, v := range variants {
		o.printf("%-10s", v.Name)
		for _, suite := range suites {
			var perWorkload []float64
			for range trace.SuiteWorkloads(suite) {
				perWorkload = append(perWorkload, vals[i])
				i++
			}
			avg := metrics.Mean(perWorkload)
			out = append(out, Table6Row{Variant: v.Name, Suite: suite, AvgReward: avg})
			o.printf(" %10.2f", avg)
		}
		o.printf("\n")
	}
	return out, nil
}

// LearningCurve is one (workload, variant) reward trajectory.
type LearningCurve struct {
	Workload string
	Variant  string
	// WindowRewards is the reward sum per 1K-access window, smoothed by
	// 10 as in the paper's Figure 6.
	WindowRewards []float64
}

// Fig6 reproduces the case-study learning curves (paper Figure 6): the
// per-window rewards of the MLP and tabular variants (with and without
// PC) on the four case-study applications.
func Fig6(o Options) ([]LearningCurve, error) {
	o = o.withDefaults()
	variants := LearningVariants()
	workloads := trace.CaseStudyWorkloads()
	out := make([]LearningCurve, len(workloads)*len(variants))
	err := o.forEach(len(out), func(i int, o Options) {
		w, v := workloads[i/len(variants)], variants[i%len(variants)]
		ctrl, _ := runVariant(o, w, v)
		sums := metrics.WindowSums(ctrl.RewardSeries(), rewardWindow)
		out[i] = LearningCurve{Workload: w.Name, Variant: v.Name, WindowRewards: metrics.Smooth(sums, 10)}
	})
	if err != nil {
		return nil, err
	}

	o.printf("== Fig 6: learning curves (reward per 1K window, smoothing 10) ==\n")
	for _, c := range out {
		sm := c.WindowRewards
		o.printf("%-15s %-8s", c.Workload, c.Variant)
		step := len(sm) / 8
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(sm); i += step {
			o.printf(" %7.1f", sm[i])
		}
		o.printf("  (final %.1f)\n", sm[len(sm)-1])
	}
	return out, nil
}

// ActionWindow is the per-window action distribution of a controller.
type ActionWindow struct {
	Window int
	Share  map[string]float64
}

// ActionStudy is one (workload, variant) action trajectory.
type ActionStudy struct {
	Workload string
	Variant  string
	Windows  []ActionWindow
	// SwitchRate is the fraction of consecutive windows whose dominant
	// action differs — the paper's Figure 7 highlights the MLP's more
	// frequent prefetcher switches.
	SwitchRate float64
}

// Fig7 reproduces the action case study (paper Figure 7): the selection
// shares of the best MLP and tabular models per 1K-access window.
func Fig7(o Options) ([]ActionStudy, error) {
	o = o.withDefaults()
	variants := []ModelVariant{{Name: "mlp"}, {Name: "tab8", Tab: true, Bits: 8}}
	workloads := trace.CaseStudyWorkloads()
	out := make([]ActionStudy, len(workloads)*len(variants))
	err := o.forEach(len(out), func(i int, o Options) {
		w, v := workloads[i/len(variants)], variants[i%len(variants)]
		ctrl, _ := runVariant(o, w, v)
		out[i] = actionStudy(w.Name, v.Name, ctrl)
	})
	if err != nil {
		return nil, err
	}

	o.printf("== Fig 7: action shares per 1K window (mlp and tab8) ==\n")
	for _, study := range out {
		o.printf("%-15s %-5s switchRate=%.2f dominant:", study.Workload, study.Variant, study.SwitchRate)
		for i := 0; i < len(study.Windows); i += maxInt(1, len(study.Windows)/8) {
			o.printf(" %s", dominant(study.Windows[i].Share))
		}
		o.printf("\n")
	}
	return out, nil
}

func actionStudy(workload, variant string, ctrl seriesController) ActionStudy {
	acts := ctrl.ActionSeries()
	names := ctrl.ActionNames()
	study := ActionStudy{Workload: workload, Variant: variant}
	prevDom := ""
	switches, windows := 0, 0
	for lo := 0; lo+rewardWindow <= len(acts); lo += rewardWindow {
		share := make(map[string]float64, len(names))
		for _, a := range acts[lo : lo+rewardWindow] {
			share[names[a]] += 1.0 / rewardWindow
		}
		study.Windows = append(study.Windows, ActionWindow{Window: lo / rewardWindow, Share: share})
		dom := dominant(share)
		if prevDom != "" && dom != prevDom {
			switches++
		}
		if prevDom != "" {
			windows++
		}
		prevDom = dom
	}
	if windows > 0 {
		study.SwitchRate = float64(switches) / float64(windows)
	}
	return study
}

func dominant(share map[string]float64) string {
	best, bestV := "", -1.0
	for name, v := range share {
		if v > bestV || (v == bestV && name < best) {
			best, bestV = name, v
		}
	}
	return best
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
