// Package experiments regenerates every table and figure of the
// paper's evaluation (Sections V and VI) on the synthetic workload
// suite. Each experiment has a Run function returning structured
// results plus a renderer that prints the same rows/series the paper
// reports; cmd/experiments exposes them by id ("fig8", "table6", ...).
package experiments

import (
	"fmt"
	"io"
	"sort"
	"time"

	"resemble/internal/core"
	"resemble/internal/prefetch"
	"resemble/internal/sim"
	"resemble/internal/sources"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// Options configures an experiment run.
type Options struct {
	// Accesses is the trace length per workload. The paper simulates
	// 100M instructions (~1–2M LLC accesses after SimPoint sampling);
	// the default here is 60000 accesses (~2.4M instructions) per
	// workload, which reaches steady state on the synthetic suite.
	Accesses int
	// Batch overrides the controller training batch. The paper's Table
	// III value is 256; the default here is 64, which keeps the full
	// sweep tractable in software simulation with no measurable change
	// in outcomes (see EXPERIMENTS.md).
	Batch int
	// Seed offsets workload and controller seeds for repeated runs.
	Seed int64
	// FixedFrac, when non-zero, serves DQN action selection from a
	// 16-bit fixed-point snapshot with this many fractional bits
	// (core.Config.FixedFrac); 0 keeps float64 serving.
	FixedFrac uint
	// Out receives the rendered tables/series; nil discards output. It
	// is wrapped in a mutex-guarded writer, so rendering stays intact
	// even if an experiment prints from concurrent workers.
	Out io.Writer
	// Jobs bounds the number of concurrent simulations of the worker
	// pool; 0 defaults to runtime.NumCPU() and 1 forces the serial
	// path. Results and telemetry streams are byte-identical at every
	// job count (see DESIGN.md, "Parallel experiment engine").
	Jobs int
	// Sim holds the sim.Runner options applied to every simulation of
	// the experiment — telemetry (sim.WithTelemetry), fault injection
	// (sim.WithFaults), and any future cross-cutting concern. This is
	// the same configuration surface direct simulator users have; the
	// harness adds nothing on top.
	Sim []sim.Option
	// Progress, when non-nil, receives a live suite-level progress line
	// (runs completed / total / ETA) as pool tasks finish.
	Progress *Progress
	// Traces overrides the trace cache; nil uses the process-wide
	// shared cache (trace.Shared), so every workload trace is generated
	// once and shared read-only across sources, experiments and
	// workers.
	Traces *trace.Cache

	// runner is the resolved sim.Runner prototype (built from Sim by
	// withDefaults); per-run variants derive from it via WithConfig and
	// With.
	runner *sim.Runner
	// deadline, when set (RunSafe), makes the worker pool stop pulling
	// tasks once passed, so a timed-out experiment winds down instead
	// of running to completion in an abandoned goroutine.
	deadline time.Time
}

func (o Options) withDefaults() Options {
	if o.Accesses == 0 {
		o.Accesses = 60000
	}
	if o.Batch == 0 {
		o.Batch = 64
	}
	if o.Out == nil {
		o.Out = io.Discard
	}
	if _, ok := o.Out.(*syncWriter); !ok {
		o.Out = &syncWriter{w: o.Out}
	}
	if o.runner == nil {
		o.runner = sim.NewRunner(sim.DefaultConfig(), o.Sim...)
	}
	return o
}

func (o Options) printf(format string, args ...any) {
	fmt.Fprintf(o.Out, format, args...)
}

// simRunner returns the resolved Runner prototype (tolerating Options
// values that skipped withDefaults, e.g. hand-built test fixtures).
func (o Options) simRunner() *sim.Runner {
	if o.runner == nil {
		o.runner = sim.NewRunner(sim.DefaultConfig(), o.Sim...)
	}
	return o.runner
}

// telemetry returns the collector installed via sim.WithTelemetry (nil
// when instrumentation is off).
func (o Options) telemetry() *telemetry.Collector {
	return o.simRunner().Telemetry()
}

// run simulates src (nil for the no-prefetch baseline) over tr through
// the experiment's Runner, so every simulation shares the experiment's
// telemetry and fault configuration.
func (o Options) run(cfg sim.Config, tr *trace.Trace, src sim.Source) sim.Result {
	res, _ := o.simRunner().WithConfig(cfg).Run(tr, src)
	return res
}

// traceFor returns the workload's trace at the experiment's length and
// seed offset, served from the trace cache.
func (o Options) traceFor(w trace.Workload) *trace.Trace {
	c := o.Traces
	if c == nil {
		c = trace.Shared()
	}
	return c.Get(w, o.Accesses, w.Seed+o.Seed)
}

// arm builds the named prefetcher through the sim.WithFaults hook.
func (o Options) arm(name string) (prefetch.Prefetcher, error) {
	p, err := sources.New(name)
	if err != nil {
		return nil, err
	}
	return o.simRunner().Wrap(p), nil
}

// controllerConfig returns the framework configuration for experiments.
func (o Options) controllerConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Batch = o.Batch
	cfg.Seed = 1 + o.Seed
	cfg.FixedFrac = o.FixedFrac
	return cfg
}

// VoyagerPrefetchers builds the Section VI-B input set: Domino replaced
// by the LSTM-based Voyager stand-in.
func VoyagerPrefetchers() []prefetch.Prefetcher {
	return sources.Set("bo", "spp", "isb", "voyager")
}

// FivePrefetchers adds a classic stride prefetcher as a fifth input
// (used by the variable-width ablation).
func FivePrefetchers() []prefetch.Prefetcher {
	return sources.Set(append(sources.Arms(), "stride")...)
}

// SourceSet names the prefetch sources compared in Figures 8–10.
type SourceSet struct {
	Names []string
}

// EvaluationSources returns the Fig 8–10 comparison set: the four
// individual prefetchers, SBP(E), ReSemble, and ReSemble-T (8-bit).
func EvaluationSources() SourceSet {
	return SourceSet{Names: append(sources.Arms(), "sbp-e", "resemble", "resemble-t")}
}

// Build builds the named source with the experiment's controller
// configuration, every arm routed through its fault plan.
func (SourceSet) Build(name string, o Options) sim.Source {
	return mustBuild(name, sources.Env{Config: o.controllerConfig(), Arm: o.arm})
}

// mustBuild builds a source an experiment names in code.
func mustBuild(name string, env sources.Env) sim.Source {
	src, err := sources.Build(name, env)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return src
}

// WorkloadRun holds one (workload, source) simulation outcome together
// with its no-prefetch baseline.
type WorkloadRun struct {
	Workload string
	Source   string
	Result   sim.Result
	Baseline sim.Result
}

// IPCImprovement is the relative IPC gain over the baseline.
func (w WorkloadRun) IPCImprovement() float64 { return w.Result.IPCImprovement(w.Baseline) }

// runMatrix simulates every (workload, source) pair through the worker
// pool, reusing one baseline run per workload, and reassembles the
// results in deterministic matrix order (workload-major, baseline
// first, sources in set order — the serial execution order).
func runMatrix(o Options, workloads []trace.Workload, set SourceSet) ([]WorkloadRun, error) {
	simCfg := sim.DefaultConfig()
	type task struct {
		w      trace.Workload
		source string // "" runs the no-prefetch baseline
	}
	var tasks []task
	for _, w := range workloads {
		tasks = append(tasks, task{w: w})
		for _, name := range set.Names {
			tasks = append(tasks, task{w: w, source: name})
		}
	}
	results := make([]sim.Result, len(tasks))
	err := o.forEach(len(tasks), func(i int, o Options) {
		t := tasks[i]
		tr := o.traceFor(t.w)
		var src sim.Source
		if t.source != "" {
			src = set.Build(t.source, o)
		}
		results[i] = o.run(simCfg, tr, src)
	})
	if err != nil {
		return nil, err
	}
	var out []WorkloadRun
	i := 0
	for _, w := range workloads {
		base := results[i]
		i++
		for _, name := range set.Names {
			out = append(out, WorkloadRun{Workload: w.Name, Source: name, Result: results[i], Baseline: base})
			i++
		}
	}
	return out, nil
}

// bySource groups runs per source preserving set order.
func bySource(runs []WorkloadRun, names []string) map[string][]WorkloadRun {
	m := make(map[string][]WorkloadRun)
	for _, r := range runs {
		m[r.Source] = append(m[r.Source], r)
	}
	for _, rs := range m {
		sort.Slice(rs, func(i, j int) bool { return rs[i].Workload < rs[j].Workload })
	}
	_ = names
	return m
}

// Registry maps experiment ids to their runners.
var Registry = map[string]func(Options) error{
	"fig1a":  func(o Options) error { _, err := Fig1a(o); return err },
	"fig1b":  func(o Options) error { _, err := Fig1b(o); return err },
	"fig1c":  func(o Options) error { _, err := Fig1c(o); return err },
	"table4": func(o Options) error { _, err := Table4(o); return err },
	"table6": func(o Options) error { _, err := Table6(o); return err },
	"fig6":   func(o Options) error { _, err := Fig6(o); return err },
	"fig7":   func(o Options) error { _, err := Fig7(o); return err },
	"fig8":   func(o Options) error { _, err := Fig8to10(o); return err },
	"fig9":   func(o Options) error { _, err := Fig8to10(o); return err },
	"fig10":  func(o Options) error { _, err := Fig8to10(o); return err },
	"table7": func(o Options) error { Table7(o); return nil },
	"fig11":  func(o Options) error { _, err := Fig11(o); return err },
	"table8": func(o Options) error { Table8(o); return nil },
	"fig12":  func(o Options) error { _, err := Fig12(o); return err },
	"config": func(o Options) error { PrintConfig(o); return nil },
	// Extensions beyond the paper's evaluation (Section VIII future work).
	"faults":    func(o Options) error { _, err := FaultMatrix(o); return err },
	"multicore": func(o Options) error { _, err := Multicore(o); return err },
	"budget":    func(o Options) error { _, err := BudgetSensitivity(o); return err },
	"taxonomy":  func(o Options) error { _, err := Taxonomy(o); return err },
	"ablation":  func(o Options) error { _, err := Ablations(o); return err },
}

// ExperimentIDs returns the registry keys in canonical order: the
// paper's artifacts first, then the extension studies.
func ExperimentIDs() []string {
	return []string{
		"fig1a", "fig1b", "fig1c", "config", "table4", "table6",
		"fig6", "fig7", "fig8", "fig9", "fig10",
		"table7", "fig11", "table8", "fig12",
		"faults", "multicore", "budget", "taxonomy", "ablation",
	}
}
