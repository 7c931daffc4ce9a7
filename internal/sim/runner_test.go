package sim

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"resemble/internal/core"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/bo"
	"resemble/internal/prefetch/domino"
	"resemble/internal/prefetch/isb"
	"resemble/internal/prefetch/spp"
	"resemble/internal/telemetry"
)

// TestRunnerDeterministicRepeat: two identical runs through the Runner
// produce identical results (the Runner builds a fresh Simulator per
// Run, so no state leaks between them).
func TestRunnerDeterministicRepeat(t *testing.T) {
	tr := streamTrace(20000)
	first, err := NewRunner(DefaultConfig()).Run(tr, &nextLineSource{degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	second, err := NewRunner(DefaultConfig()).Run(tr, &nextLineSource{degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("repeated runs diverged:\nfirst  %+v\nsecond %+v", first, second)
	}
}

// TestRunnerBaselineOption: WithBaseline ignores the source entirely —
// passing a real source produces the same result as passing nil, with
// no prefetches issued.
func TestRunnerBaselineOption(t *testing.T) {
	tr := streamTrace(20000)
	withNil, err := NewRunner(DefaultConfig(), WithBaseline()).Run(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := NewRunner(DefaultConfig(), WithBaseline()).Run(tr, &nextLineSource{degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(withNil, got) {
		t.Errorf("WithBaseline result depends on the source:\nnil    %+v\nsource %+v", withNil, got)
	}
	if got.PrefetchesIssued != 0 {
		t.Errorf("baseline issued %d prefetches, want 0", got.PrefetchesIssued)
	}
}

// TestRunnerTelemetryOption: WithTelemetry observes without perturbing —
// the result matches an uninstrumented run, the window streams of two
// instrumented runs are identical, and windows are actually emitted.
func TestRunnerTelemetryOption(t *testing.T) {
	tr := streamTrace(20000)
	collect := func() (Result, []telemetry.WindowSnapshot) {
		tel, err := telemetry.New(telemetry.Config{KeepWindows: true, TraceSample: 16})
		if err != nil {
			t.Fatal(err)
		}
		r, err := NewRunner(DefaultConfig(), WithTelemetry(tel)).Run(tr, &nextLineSource{degree: 2})
		if err != nil {
			t.Fatal(err)
		}
		return r, tel.Windows()
	}
	plain, err := NewRunner(DefaultConfig()).Run(tr, &nextLineSource{degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	got, gotWin := collect()
	again, againWin := collect()
	if !reflect.DeepEqual(plain, got) {
		t.Errorf("telemetry perturbed the result:\nplain %+v\ntel   %+v", plain, got)
	}
	if len(gotWin) == 0 {
		t.Fatal("no window snapshots collected")
	}
	if !reflect.DeepEqual(got, again) || !reflect.DeepEqual(gotWin, againWin) {
		t.Errorf("window streams diverged across identical runs: %d vs %d windows", len(gotWin), len(againWin))
	}
}

// TestRunChromeTraceValidates runs what `resemble -workload 433.milc
// -controller resemble-t -n 4000 -trace-chrome F -explain D` runs — a
// baseline run, then the tabular ensemble, on one collector — and
// checks the Chrome trace the collector writes on Close loads
// (ValidateChromeTraceFile) and that sampled decisions were streamed.
func TestRunChromeTraceValidates(t *testing.T) {
	dir := t.TempDir()
	chrome, explain := filepath.Join(dir, "run-trace.json"), filepath.Join(dir, "decisions.jsonl")
	tel, err := telemetry.New(telemetry.Config{ChromeOut: chrome, ExplainOut: explain, ExplainSample: 32})
	if err != nil {
		t.Fatal(err)
	}
	tr := lookupTrace(t, "433.milc", 4000)
	r := NewRunner(DefaultConfig(), WithTelemetry(tel))
	if _, err := r.With(WithBaseline()).Run(tr, nil); err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.Batch, cfg.Seed = 64, 1
	arms := []prefetch.Prefetcher{
		bo.New(bo.Config{}), spp.New(spp.Config{}),
		isb.New(isb.Config{}), domino.New(domino.Config{}),
	}
	if _, err := r.Run(tr, core.NewTabularController(cfg, arms)); err != nil {
		t.Fatal(err)
	}
	if err := tel.Close(); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTraceFile(chrome); err != nil {
		t.Fatal(err)
	}
	decisions, err := os.ReadFile(explain)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Count(decisions, []byte("\n")) == 0 {
		t.Fatal("no decision records written")
	}
}

// TestRunnerOptionMatrix runs every combination of the stateless
// options and checks the combinations behave independently: telemetry
// never changes results, baseline always suppresses prefetching.
func TestRunnerOptionMatrix(t *testing.T) {
	tr := streamTrace(12000)
	plain, err := NewRunner(DefaultConfig()).Run(tr, &nextLineSource{degree: 2})
	if err != nil {
		t.Fatal(err)
	}
	base, err := NewRunner(DefaultConfig(), WithBaseline()).Run(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, useTel := range []bool{false, true} {
		for _, useBase := range []bool{false, true} {
			var opts []Option
			if useTel {
				tel, terr := telemetry.New(telemetry.Config{KeepWindows: true})
				if terr != nil {
					t.Fatal(terr)
				}
				opts = append(opts, WithTelemetry(tel))
			}
			if useBase {
				opts = append(opts, WithBaseline())
			}
			r, rerr := NewRunner(DefaultConfig(), opts...).Run(tr, &nextLineSource{degree: 2})
			if rerr != nil {
				t.Fatalf("tel=%v base=%v: %v", useTel, useBase, rerr)
			}
			want := plain
			if useBase {
				want = base
			}
			if !reflect.DeepEqual(r, want) {
				t.Errorf("tel=%v base=%v diverged:\ngot  %+v\nwant %+v", useTel, useBase, r, want)
			}
		}
	}
}

// TestRunnerWithDoesNotMutate: With/WithConfig derive copies; the
// original Runner keeps its configuration, so a shared prototype can
// safely hand out per-task variants.
func TestRunnerWithDoesNotMutate(t *testing.T) {
	r := NewRunner(DefaultConfig())
	rb := r.With(WithBaseline())
	if r.set.baseline {
		t.Error("With mutated the original Runner")
	}
	if !rb.set.baseline {
		t.Error("With dropped the new option")
	}
	cfg := DefaultConfig()
	cfg.PrefetchLatency = 7
	rc := rb.WithConfig(cfg)
	if rc.Config().PrefetchLatency != 7 || !rc.set.baseline {
		t.Errorf("WithConfig lost config or settings: %+v %+v", rc.Config(), rc.set)
	}
	if r.Config().PrefetchLatency == 7 {
		t.Error("WithConfig mutated the original Runner")
	}
}

// TestRunnerWrap: WithFaults routes prefetchers through the plan;
// without a plan Wrap is the identity.
func TestRunnerWrap(t *testing.T) {
	var wrapped int
	plan := func(p prefetch.Prefetcher) prefetch.Prefetcher { wrapped++; return p }
	r := NewRunner(DefaultConfig(), WithFaults(plan))
	p := bo.New(bo.Config{})
	if r.Wrap(p) == nil || wrapped != 1 {
		t.Fatalf("Wrap did not route through the plan (wrapped=%d)", wrapped)
	}
	r.WrapAll([]prefetch.Prefetcher{p, p})
	if wrapped != 3 {
		t.Errorf("WrapAll wrapped %d times, want 3", wrapped)
	}
	plainRunner := NewRunner(DefaultConfig())
	if plainRunner.Wrap(p) != p {
		t.Error("Wrap without a plan must be the identity")
	}
}

// TestNilOptionsSkipped: nil options (conditional construction) are
// tolerated.
func TestNilOptionsSkipped(t *testing.T) {
	r := NewRunner(DefaultConfig(), nil, WithBaseline(), nil)
	if !r.set.baseline {
		t.Error("nil options disturbed real ones")
	}
}
