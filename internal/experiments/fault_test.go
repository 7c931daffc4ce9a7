package experiments

import (
	"io"
	"reflect"
	"testing"
	"time"

	"resemble/internal/core"
	"resemble/internal/faults"
	"resemble/internal/prefetch"
	"resemble/internal/sim"
	"resemble/internal/sources"
	"resemble/internal/trace"
)

// degradationRun runs the tabular ensemble with the BO input broken by
// the given fault and returns the result, the number of masked arms,
// and whether the faulted arm specifically ended up masked. The tabular
// controller is the vulnerable one: its optimistic cold-start re-tries
// every arm in each unseen state, so a broken arm keeps polluting the
// cache forever unless it is masked (the DQN's function approximation
// generalizes the avoidance across states on its own).
func degradationRun(t *testing.T, mode faults.Mode, masked bool) (sim.Result, int, bool) {
	t.Helper()
	w, err := trace.Lookup("433.lbm")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.GenerateSeeded(40000, w.Seed)
	cfg := core.DefaultConfig()
	cfg.Batch = 64
	if masked {
		cfg = faultMaskConfig(cfg)
	}
	pfs := sources.TableII()
	pfs[0] = faults.Wrap(pfs[0], faults.Config{Mode: mode, Seed: 97})
	ctrl := core.NewTabularController(cfg, pfs)
	res, err := sim.NewRunner(sim.DefaultConfig()).Run(tr, ctrl)
	if err != nil {
		t.Fatal(err)
	}
	return res, ctrl.MaskedArms(), ctrl.ArmMasked(0)
}

// TestMaskingImprovesFaultedEnsemble is the graceful-degradation
// acceptance test: with the dominant arm broken, the masked ensemble
// must beat the unmasked one on accuracy for the fault classes that
// actively pollute (stuck, noisy) and never be worse for silent (a
// silent arm issues nothing, so masking has nothing to cut).
func TestMaskingImprovesFaultedEnsemble(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulator runs skipped in -short mode")
	}
	for _, tc := range []struct {
		mode   faults.Mode
		strict bool
	}{
		{faults.Stuck, true},
		{faults.Noisy, true},
		{faults.Silent, false},
	} {
		t.Run(tc.mode.String(), func(t *testing.T) {
			maskedRes, maskedArms, faultedMasked := degradationRun(t, tc.mode, true)
			unmaskedRes, _, _ := degradationRun(t, tc.mode, false)
			if tc.strict {
				if !faultedMasked {
					t.Errorf("fault %s: expected the broken arm to be masked (%d arms masked)",
						tc.mode, maskedArms)
				}
				if maskedRes.Accuracy <= unmaskedRes.Accuracy {
					t.Errorf("fault %s: masked accuracy %.4f not above unmasked %.4f",
						tc.mode, maskedRes.Accuracy, unmaskedRes.Accuracy)
				}
			} else if maskedRes.Accuracy < unmaskedRes.Accuracy {
				t.Errorf("fault %s: masked accuracy %.4f below unmasked %.4f",
					tc.mode, maskedRes.Accuracy, unmaskedRes.Accuracy)
			}
			if maskedRes.IPC < unmaskedRes.IPC {
				t.Errorf("fault %s: masked IPC %.3f below unmasked %.3f",
					tc.mode, maskedRes.IPC, unmaskedRes.IPC)
			}
		})
	}
}

// TestMaskingDQNNeverWorse: the DQN already learns to avoid a broken
// arm through its Q-values, so masking buys it little — but it must not
// cost accuracy either.
func TestMaskingDQNNeverWorse(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulator runs skipped in -short mode")
	}
	w, err := trace.Lookup("433.lbm")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.GenerateSeeded(40000, w.Seed)
	run := func(masked bool) sim.Result {
		cfg := core.DefaultConfig()
		cfg.Batch = 64
		if masked {
			cfg = faultMaskConfig(cfg)
		}
		pfs := sources.TableII()
		pfs[0] = faults.Wrap(pfs[0], faults.Config{Mode: faults.Noisy, Seed: 97})
		res, err := sim.NewRunner(sim.DefaultConfig()).Run(tr, core.NewController(cfg, pfs))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	maskedRes, unmaskedRes := run(true), run(false)
	if maskedRes.Accuracy < unmaskedRes.Accuracy-0.02 {
		t.Errorf("masking cost the DQN accuracy: masked %.4f vs unmasked %.4f",
			maskedRes.Accuracy, unmaskedRes.Accuracy)
	}
}

// TestMaskingDisabledIsIdentical pins the compatibility contract: a
// zero MaskFloor must leave results bit-identical to a controller
// without the masking subsystem in the loop.
func TestMaskingDisabledIsIdentical(t *testing.T) {
	w, err := trace.Lookup("471.omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.GenerateSeeded(12000, w.Seed)
	run := func(cfg core.Config) sim.Result {
		res, err := sim.NewRunner(sim.DefaultConfig()).Run(tr, core.NewController(cfg, sources.TableII()))
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	cfg := core.DefaultConfig()
	cfg.Batch = 64
	a := run(cfg)
	b := run(cfg) // same config twice: determinism guard
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical configs diverged:\n%+v\n%+v", a, b)
	}
}

func TestRunSafeRecoversPanic(t *testing.T) {
	Registry["test-panic"] = func(Options) error { panic("boom") }
	defer delete(Registry, "test-panic")

	r := RunSafe("test-panic", Options{Out: io.Discard}, 0)
	if !r.Panicked || r.Err == nil {
		t.Fatalf("want recovered panic, got %+v", r)
	}
}

func TestRunSafeDeadline(t *testing.T) {
	Registry["test-hang"] = func(Options) error { time.Sleep(5 * time.Second); return nil }
	defer delete(Registry, "test-hang")

	r := RunSafe("test-hang", Options{Out: io.Discard}, 50*time.Millisecond)
	if !r.TimedOut || r.Err == nil {
		t.Fatalf("want deadline exceeded, got %+v", r)
	}
}

// TestRunSuiteContinuesPastFailure: a panicking experiment must not
// abort the remaining suite entries.
func TestRunSuiteContinuesPastFailure(t *testing.T) {
	Registry["test-panic"] = func(Options) error { panic("boom") }
	defer delete(Registry, "test-panic")

	rs := RunSuite([]string{"test-panic", "config"}, Options{Out: io.Discard, Accesses: 1000}, 0)
	if len(rs) != 2 {
		t.Fatalf("want 2 results, got %d", len(rs))
	}
	if !rs[0].Panicked {
		t.Errorf("first experiment should have panicked: %+v", rs[0])
	}
	if rs[1].Failed() {
		t.Errorf("suite did not continue cleanly past the panic: %+v", rs[1])
	}
}

// TestFaultHookWiring: the sim.WithFaults plan must reach the
// prefetchers inside built sources.
func TestFaultHookWiring(t *testing.T) {
	wrapped := 0
	o := Options{
		Accesses: 1000,
		Batch:    64,
		Sim: []sim.Option{sim.WithFaults(func(p prefetch.Prefetcher) prefetch.Prefetcher {
			wrapped++
			return faults.Wrap(p, faults.Config{Mode: faults.Silent})
		})},
	}
	EvaluationSources().Build("resemble", o)
	if wrapped != 4 {
		t.Errorf("ensemble build wrapped %d prefetchers, want 4", wrapped)
	}
	wrapped = 0
	EvaluationSources().Build("bo", o)
	if wrapped != 1 {
		t.Errorf("solo build wrapped %d prefetchers, want 1", wrapped)
	}
}
