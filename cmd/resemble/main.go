// Command resemble runs any prefetch controller over any workload (a
// registered synthetic workload or a trace file) and prints accuracy,
// coverage, MPKI and IPC improvement.
//
// Usage:
//
//	resemble -workload 471.omnetpp -controller resemble
//	resemble -workload hybrid.phases -controller sbp-e -n 100000
//	resemble -trace /path/to/trace.bin -controller resemble-t
//	resemble -workloads                         # list workloads
//
// Telemetry: -telemetry DIR enables the full observability layer — a
// RunManifest (manifest.json), per-1K-access window snapshots
// (windows.jsonl: reward, action shares, epsilon, IPC, MPKI), a
// sampled structured event trace (trace.jsonl, 1-in-N via
// -trace-sample) and a registry dump (metrics.json). -trace-out
// redirects the event trace (a .csv suffix switches the format);
// -pprof DIR writes cpu.pprof/heap.pprof; -pprof-http ADDR serves
// net/http/pprof.
//
// Like the paper's artifact demo, the run can emit its decision logs:
//
//	resemble -workload 654.roms -controller resemble \
//	    -pref roms.pref.txt -rewards roms.rewards.csv
//
// Both are thin sinks over the telemetry layer: the .pref.txt file
// lists the prefetched addresses per access (reconstructed from
// full-rate prefetch-issue events) and the .rewards.csv file records
// the reward sum and action shares per 1K-access window snapshot.
//
// Fault tolerance: -checkpoint FILE snapshots the whole run (simulator,
// controller, RNG, telemetry) every -checkpoint-every records and on
// SIGINT/SIGTERM; -resume continues from the snapshot and produces
// byte-identical results to an uninterrupted run:
//
//	resemble -workload 471.omnetpp -checkpoint run.ckpt
//	^C
//	resemble -workload 471.omnetpp -checkpoint run.ckpt -resume
//
// Parallelism: -jobs 2 simulates the baseline and the controller
// concurrently on isolated telemetry collectors; the merged outputs
// are byte-identical to a serial run. Incompatible with -checkpoint
// and -pref (both need the serial stream).
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"

	"resemble/internal/core"
	"resemble/internal/sim"
	"resemble/internal/sources"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

func loadTrace(workload, path string, n int, seed int64) (*trace.Trace, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return trace.Read(f)
	}
	w, err := trace.Lookup(workload)
	if err != nil {
		return nil, err
	}
	return w.GenerateSeeded(n, w.Seed+seed), nil
}

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run holds the whole invocation so that every writer is flushed and
// closed via defer on all exit paths, including errors — the old
// os.Exit-style main could silently truncate -pref/-rewards files.
func run() (err error) {
	var (
		workload    = flag.String("workload", "hybrid.phases", "registered workload name")
		tracePath   = flag.String("trace", "", "binary trace file (overrides -workload)")
		ctrl        = flag.String("controller", "resemble", strings.Join(sources.Names(), "|"))
		n           = flag.Int("n", 60000, "accesses to generate")
		batch       = flag.Int("batch", 64, "controller training batch")
		seed        = flag.Int64("seed", 0, "seed offset")
		latency     = flag.Uint64("latency", 0, "controller inference latency in cycles")
		lowTP       = flag.Bool("lowtp", false, "low-throughput controller model")
		fixedFrac   = flag.Uint("fixed-frac", 0, "serve DQN decisions from a 16-bit fixed-point snapshot with this many fractional bits (1-14; 0 = float serving)")
		prefOut     = flag.String("pref", "", "write prefetched addresses per access to this file")
		rewardOut   = flag.String("rewards", "", "write per-1K-window rewards and action shares (CSV)")
		telDir      = flag.String("telemetry", "", "write manifest, window snapshots, metrics and a sampled trace to this directory")
		traceOut    = flag.String("trace-out", "", "sampled event trace path (default <telemetry>/trace.jsonl; .csv switches format)")
		traceSample = flag.Int("trace-sample", 64, "event trace sampling: keep 1 in N (0 disables)")
		chromeOut   = flag.String("trace-chrome", "", "write the span trace as Chrome trace-event JSON (chrome://tracing, Perfetto) to this file")
		explainOut  = flag.String("explain", "", "write sampled RL decision records (state, Q-values, epsilon, chosen arm, reward) as JSONL to this file")
		explainN    = flag.Int("explain-sample", 32, "decision explainability sampling: keep 1 in N (with -explain or -telemetry)")
		pprofDir    = flag.String("pprof", "", "write cpu.pprof and heap.pprof to this directory")
		pprofHTTP   = flag.String("pprof-http", "", "serve net/http/pprof on this address (e.g. :6060)")
		saveModel   = flag.String("save", "", "save the trained model (resemble / resemble-t) to this file")
		loadModel   = flag.String("load", "", "load a previously saved model before running")
		ckpPath     = flag.String("checkpoint", "", "checkpoint the run to this file (written periodically and on SIGINT/SIGTERM)")
		ckpEvery    = flag.Int("checkpoint-every", 100000, "checkpoint boundary spacing in trace records")
		resume      = flag.Bool("resume", false, "resume the run from -checkpoint instead of starting over")
		jobs        = flag.Int("jobs", 1, "run the baseline and controller simulations concurrently (>= 2; incompatible with -checkpoint and -pref)")
		list        = flag.Bool("workloads", false, "list workloads and exit")
	)
	flag.Parse()

	if *resume && *ckpPath == "" {
		return fmt.Errorf("-resume requires -checkpoint")
	}

	if *list {
		fmt.Println(strings.Join(trace.Names(), "\n"))
		return nil
	}

	tr, err := loadTrace(*workload, *tracePath, *n, *seed)
	if err != nil {
		return err
	}
	ctrlCfg := core.DefaultConfig()
	ctrlCfg.Batch = *batch
	ctrlCfg.Seed = 1 + *seed
	ctrlCfg.FixedFrac = *fixedFrac
	if err := ctrlCfg.Validate(); err != nil {
		return err
	}
	src, err := sources.Build(*ctrl, sources.Env{Config: ctrlCfg})
	if err != nil {
		return err
	}

	simCfg := sim.DefaultConfig()
	simCfg.PrefetchLatency = *latency
	simCfg.LowThroughput = *lowTP

	// Telemetry collector: needed for -telemetry and for the thin
	// artifact sinks (-pref/-rewards reconstruct their formats from the
	// telemetry streams).
	var tel *telemetry.Collector
	if *telDir != "" || *traceOut != "" || *prefOut != "" || *rewardOut != "" ||
		*chromeOut != "" || *explainOut != "" {
		sample := 0
		if *explainOut != "" || *telDir != "" {
			sample = *explainN
		}
		tel, err = telemetry.New(telemetry.Config{
			Dir:           *telDir,
			TraceOut:      *traceOut,
			TraceSample:   *traceSample,
			ChromeOut:     *chromeOut,
			ExplainOut:    *explainOut,
			ExplainSample: sample,
		})
		if err != nil {
			return err
		}
		defer func() {
			if cerr := tel.Close(); err == nil {
				err = cerr
			}
		}()
		m := tel.Manifest()
		m.Workload, m.Controller = tr.Name, *ctrl
		m.Seed, m.Accesses = *seed, *n
		m.SetConfig("sim", simCfg)
		if *ctrl == "resemble" || *ctrl == "resemble-t" {
			m.SetConfig("controller", ctrlCfg)
		}
	}

	if *pprofHTTP != "" {
		addr, psrv, herr := telemetry.ServePprof(*pprofHTTP)
		if herr != nil {
			return herr
		}
		defer psrv.Close()
		fmt.Printf("pprof listening on %s\n", addr)
	}
	if *pprofDir != "" {
		stop, perr := telemetry.StartProfiles(*pprofDir)
		if perr != nil {
			return perr
		}
		defer func() {
			if cerr := stop(); err == nil {
				err = cerr
			}
		}()
	}

	if *loadModel != "" {
		if err := loadModelFile(src, *loadModel); err != nil {
			return err
		}
		fmt.Printf("loaded model from %s\n", *loadModel)
	}

	// All simulations go through one Runner; variants (baseline,
	// checkpointed, per-goroutine collectors) derive from it with With.
	runner := sim.NewRunner(simCfg, sim.WithTelemetry(tel))

	attachSinks := func() error {
		// The artifact sinks attach after the baseline stream so they
		// record only the controller's, like the old recorder did.
		if *prefOut != "" {
			ps, perr := newPrefSink(*prefOut)
			if perr != nil {
				return perr
			}
			tel.AddEventSink(ps, true)
		}
		if *rewardOut != "" {
			f, ferr := os.Create(*rewardOut)
			if ferr != nil {
				return ferr
			}
			tel.AddWindowSink(telemetry.NewRewardsCSVSink(f))
		}
		return nil
	}

	var base, r sim.Result
	switch {
	case *jobs > 1 && src != nil && *ckpPath == "" && *prefOut == "":
		// Concurrent mode: baseline and controller simulate in parallel,
		// each on an isolated child collector; merging base-then-ctrl
		// afterwards (artifact sinks attached between the merges)
		// reproduces the serial telemetry streams byte for byte. The
		// -pref sink needs full-rate events, which child collectors do
		// not carry, so that flag forces the serial path.
		var baseCh, ctrlCh *telemetry.Collector
		baseRunner := runner.With(sim.WithBaseline())
		ctrlRunner := runner
		if tel != nil {
			baseCh, ctrlCh = tel.Child(), tel.Child()
			baseRunner = baseRunner.With(sim.WithTelemetry(baseCh))
			ctrlRunner = ctrlRunner.With(sim.WithTelemetry(ctrlCh))
		}
		var baseErr, ctrlErr error
		var wg sync.WaitGroup
		wg.Add(2)
		go func() { defer wg.Done(); base, baseErr = baseRunner.Run(tr, nil) }()
		go func() { defer wg.Done(); r, ctrlErr = ctrlRunner.Run(tr, src) }()
		wg.Wait()
		if baseErr != nil {
			return baseErr
		}
		if ctrlErr != nil {
			return ctrlErr
		}
		if tel != nil {
			tel.Merge(baseCh)
			if err := attachSinks(); err != nil {
				return err
			}
			tel.Merge(ctrlCh)
		}
		fmt.Printf("workload %s: %s\n", tr.Name, tr.ComputeStats())
		fmt.Printf("baseline: IPC=%.3f MPKI=%.2f LLC misses=%d\n", base.IPC, base.MPKI, base.LLCMisses)

	default:
		base, err = runner.With(sim.WithBaseline()).Run(tr, nil)
		if err != nil {
			return err
		}
		fmt.Printf("workload %s: %s\n", tr.Name, tr.ComputeStats())
		fmt.Printf("baseline: IPC=%.3f MPKI=%.2f LLC misses=%d\n", base.IPC, base.MPKI, base.LLCMisses)
		if src == nil {
			return nil
		}
		if err := attachSinks(); err != nil {
			return err
		}

		if *ckpPath != "" {
			// Fault-tolerant path: periodic checkpoints, plus a final one
			// on SIGINT/SIGTERM so an interrupted run can continue with
			// -resume.
			var interrupted atomic.Bool
			sigc := make(chan os.Signal, 1)
			signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
			defer signal.Stop(sigc)
			go func() {
				<-sigc
				fmt.Fprintln(os.Stderr, "signal received; writing checkpoint...")
				interrupted.Store(true)
			}()
			opts := []sim.Option{
				sim.WithCheckpoint(*ckpPath, *ckpEvery),
				sim.WithInterrupt(&interrupted),
			}
			if *resume {
				opts = append(opts, sim.WithResume())
			}
			r, err = runner.With(opts...).Run(tr, src)
			if errors.Is(err, sim.ErrInterrupted) {
				fmt.Fprintf(os.Stderr, "checkpoint written to %s; rerun with -resume to continue\n", *ckpPath)
				return err
			}
			if err != nil {
				return err
			}
			// The run completed: the periodic checkpoint is stale now, and
			// a later -resume from it would replay the tail of the trace.
			if rmErr := os.Remove(*ckpPath); rmErr != nil && !errors.Is(rmErr, os.ErrNotExist) {
				return rmErr
			}
		} else if r, err = runner.Run(tr, src); err != nil {
			return err
		}
	}
	fmt.Printf("%s: accuracy=%.1f%% coverage=%.1f%% MPKI=%.2f IPC=%.3f (%+.1f%%)\n",
		r.Source, 100*r.Accuracy, 100*r.Coverage, r.MPKI, r.IPC, 100*r.IPCImprovement(base))
	fmt.Printf("  prefetches: issued=%d useful=%d late=%d dropped=%d\n",
		r.PrefetchesIssued, r.UsefulPrefetches, r.LatePrefetchHits, r.DroppedPrefetches)
	if *prefOut != "" {
		fmt.Printf("wrote prefetch log to %s\n", *prefOut)
	}
	if *rewardOut != "" {
		fmt.Printf("wrote reward/action windows to %s\n", *rewardOut)
	}

	if *saveModel != "" {
		if err := saveModelFile(src, *saveModel); err != nil {
			return err
		}
		fmt.Printf("saved model to %s\n", *saveModel)
	}
	return nil
}

// prefSink reconstructs the artifact-style .pref.txt from full-rate
// telemetry events: each LLC access event (hit/miss/late-hit) starts a
// line, and every prefetch-issue event appends an address to it.
type prefSink struct {
	f   *os.File
	w   *bufio.Writer
	idx int
	on  bool // a line is open
}

func newPrefSink(path string) (*prefSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &prefSink{f: f, w: bufio.NewWriter(f)}, nil
}

// WriteEvent implements telemetry.Sink.
func (p *prefSink) WriteEvent(e telemetry.Event) error {
	switch {
	case e.Kind.IsAccess():
		if p.on {
			if err := p.w.WriteByte('\n'); err != nil {
				return err
			}
			p.idx++
		}
		p.on = true
		_, err := fmt.Fprintf(p.w, "%d", p.idx)
		return err
	case e.Kind == telemetry.KindPrefetchIssue && p.on:
		_, err := fmt.Fprintf(p.w, " 0x%x", e.Addr)
		return err
	}
	return nil
}

// Close implements telemetry.Sink.
func (p *prefSink) Close() error {
	if p.on {
		if err := p.w.WriteByte('\n'); err != nil {
			return err
		}
	}
	err := p.w.Flush()
	if cerr := p.f.Close(); err == nil {
		err = cerr
	}
	return err
}

// modelSource is implemented by the RL controllers.
type modelSource interface {
	SaveModel(io.Writer) error
	LoadModel(io.Reader) error
}

func asModelSource(src sim.Source) (modelSource, error) {
	m, ok := src.(modelSource)
	if !ok {
		return nil, fmt.Errorf("controller %q does not support model persistence", src.Name())
	}
	return m, nil
}

func saveModelFile(src sim.Source, path string) error {
	m, err := asModelSource(src)
	if err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.SaveModel(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func loadModelFile(src sim.Source, path string) error {
	m, err := asModelSource(src)
	if err != nil {
		return err
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	return m.LoadModel(f)
}
