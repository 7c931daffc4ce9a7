package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"resemble/internal/faults"
	"resemble/internal/prefetch"
	"resemble/internal/sim"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// goldenRun executes one experiment with telemetry into a temp
// directory and returns the rendered output plus the telemetry file
// contents, so two job levels can be compared byte for byte.
func goldenRun(t *testing.T, jobs int, run func(Options) error) (rendered, windows, events string) {
	t.Helper()
	dir := t.TempDir()
	tel, err := telemetry.New(telemetry.Config{Dir: dir, TraceSample: 16})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	o := Options{
		Accesses: 6000,
		Batch:    64,
		Out:      &out,
		Jobs:     jobs,
		Sim:      []sim.Option{sim.WithTelemetry(tel)},
		Traces:   trace.NewCache(0),
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	read := func(name string) string {
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	return out.String(), read("windows.jsonl"), read("trace.jsonl")
}

// TestPoolDeterminism is the golden contract of the parallel engine:
// the rendered results and the merged telemetry streams (window
// snapshots and the sampled event trace) must be byte-identical
// between a serial run (-jobs 1) and a pooled one (-jobs 8).
func TestPoolDeterminism(t *testing.T) {
	experimentsUnderTest := map[string]func(Options) error{
		"fig1c": func(o Options) error { _, err := Fig1c(o); return err },
	}
	if !testing.Short() {
		// The fault matrix adds RL controllers and fault injection to
		// the determinism surface.
		experimentsUnderTest["faults"] = func(o Options) error { _, err := FaultMatrix(o); return err }
	}
	for name, run := range experimentsUnderTest {
		t.Run(name, func(t *testing.T) {
			serialOut, serialWin, serialTrace := goldenRun(t, 1, run)
			poolOut, poolWin, poolTrace := goldenRun(t, 8, run)
			if serialOut != poolOut {
				t.Errorf("rendered output diverged between -jobs 1 and -jobs 8:\n--- serial ---\n%s\n--- jobs 8 ---\n%s", serialOut, poolOut)
			}
			if serialWin != poolWin {
				t.Errorf("windows.jsonl diverged (%d vs %d bytes)", len(serialWin), len(poolWin))
			}
			if serialTrace != poolTrace {
				t.Errorf("trace.jsonl diverged (%d vs %d bytes)", len(serialTrace), len(poolTrace))
			}
			if serialOut == "" || serialWin == "" || serialTrace == "" {
				t.Error("golden run produced empty artifacts; the comparison is vacuous")
			}
		})
	}
}

// TestPoolWithFaultInjection drives the pooled matrix path with a
// fault-injection plan and telemetry at high concurrency — the -race
// gate in scripts/check.sh runs this to shake out data races between
// workers, the trace cache and child-collector merging.
func TestPoolWithFaultInjection(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{KeepWindows: true, TraceSample: 16})
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	o := Options{
		Accesses: 3000,
		Batch:    64,
		Out:      &out,
		Jobs:     8,
		Sim: []sim.Option{
			sim.WithTelemetry(tel),
			sim.WithFaults(func(p prefetch.Prefetcher) prefetch.Prefetcher {
				return faults.Wrap(p, faults.Config{Mode: faults.Silent, Seed: 7})
			}),
		},
		Traces:   trace.NewCache(0),
		Progress: NewProgress(&bytes.Buffer{}),
	}
	runs, err := runMatrix(o.withDefaults(), trace.MotivationWorkloads(), EvaluationSources())
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) == 0 {
		t.Fatal("matrix produced no runs")
	}
	for _, r := range runs {
		if r.Result.LLCAccesses == 0 {
			t.Errorf("%s/%s: empty result", r.Workload, r.Source)
		}
	}
	if len(tel.Windows()) == 0 {
		t.Error("telemetry collected no windows from the pooled matrix")
	}
}

// TestPoolPanicIsolation: a panicking task must not take down its
// siblings silently — the pool drains, then re-raises the first panic
// with its task index.
func TestPoolPanicIsolation(t *testing.T) {
	o := Options{Out: nil, Jobs: 4}.withDefaults()
	var completed atomic.Int32
	defer func() {
		v := recover()
		if v == nil {
			t.Fatal("pool swallowed the task panic")
		}
		if s, ok := v.(string); !ok || !strings.Contains(s, "pool task 2/") {
			t.Errorf("panic lost its task attribution: %v", v)
		}
	}()
	o.forEach(8, func(i int, _ Options) {
		if i == 2 {
			panic("boom")
		}
		completed.Add(1)
	})
}

// TestPoolDeadline: an expired Options deadline stops dispatch and
// surfaces errDeadline (which RunSafe maps to TimedOut).
func TestPoolDeadline(t *testing.T) {
	for _, jobs := range []int{1, 4} {
		o := Options{Jobs: jobs}.withDefaults()
		o.deadline = time.Now().Add(-time.Second)
		ran := 0
		err := o.forEach(4, func(int, Options) { ran++ })
		if err == nil {
			t.Fatalf("jobs=%d: expired deadline not reported", jobs)
		}
		if ran != 0 {
			t.Errorf("jobs=%d: %d tasks dispatched after the deadline", jobs, ran)
		}
	}
}

// TestPoolChildCollectors: with jobs > 1 every task must see its own
// collector (isolation), and all runs must land in the parent manifest
// after the merge.
func TestPoolChildCollectors(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{KeepWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	o := Options{Jobs: 4, Sim: []sim.Option{sim.WithTelemetry(tel)}}.withDefaults()
	seen := make([]*telemetry.Collector, 8)
	o.forEach(8, func(i int, to Options) {
		seen[i] = to.telemetry()
	})
	for i, c := range seen {
		if c == nil || c == tel {
			t.Fatalf("task %d did not get an isolated child collector", i)
		}
		for j := 0; j < i; j++ {
			if seen[j] == c {
				t.Fatalf("tasks %d and %d share a collector", j, i)
			}
		}
	}
}

// TestProgress: the tracker is nil-safe and renders a final count.
func TestProgress(t *testing.T) {
	var p *Progress
	p.add(3)
	p.tick()
	p.Finish() // nil: all no-ops

	var buf bytes.Buffer
	p = NewProgress(&buf)
	p.add(2)
	p.tick()
	p.tick()
	p.Finish()
	if !strings.Contains(buf.String(), "runs 2/2") {
		t.Errorf("progress line missing final count: %q", buf.String())
	}
}

// BenchmarkMatrixPool exercises the pooled evaluation path end to end
// (trace cache, worker pool, result reassembly); scripts/check.sh runs
// it with -benchtime=1x as a smoke test.
func BenchmarkMatrixPool(b *testing.B) {
	o := Options{Accesses: 2000, Batch: 64, Traces: trace.NewCache(0)}.withDefaults()
	workloads := trace.MotivationWorkloads()
	for i := 0; i < b.N; i++ {
		if _, err := runMatrix(o, workloads, EvaluationSources()); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPooledFig1cAllocBudget bounds the allocations of one pooled
// experiment over warm shared traces: the worker pool, a fresh arm per
// prefetcher run, the simulators and the rendered rows. About 340
// measured; 768 leaves room for drift, while an allocation per
// simulated access would cost tens of thousands.
func TestPooledFig1cAllocBudget(t *testing.T) {
	const budget = 768
	o := Options{Accesses: 3000, Batch: 64, Jobs: runtime.NumCPU()}
	var err error
	allocs := testing.AllocsPerRun(3, func() {
		if _, ferr := Fig1c(o); ferr != nil {
			err = ferr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > budget {
		t.Errorf("pooled Fig1c allocates %.0f per run, budget %d", allocs, budget)
	}
}
