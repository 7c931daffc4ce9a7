package resemble_bench

// Ablation benchmarks for the design choices Section IV motivates:
// reward-window size W, replay capacity, MLP hidden width, hash bits,
// ε-decay speed, and the ensemble width (4 vs 5 input prefetchers).
// Each bench runs the MLP controller on the hybrid phase workload and
// reports the resulting IPC gain and accuracy, so `go test -bench
// Ablation` prints a compact sensitivity study.

import (
	"fmt"
	"testing"

	"resemble/internal/core"
	"resemble/internal/experiments"
	"resemble/internal/prefetch"
	"resemble/internal/sim"
	"resemble/internal/sources"
	"resemble/internal/trace"
)

// ablationRun simulates the MLP controller with a tweaked config on the
// hybrid workload and returns (IPC gain, accuracy).
func ablationRun(b *testing.B, mutate func(*core.Config), pfs []prefetch.Prefetcher) (float64, float64) {
	b.Helper()
	cfg := core.DefaultConfig()
	cfg.Batch = 32
	if mutate != nil {
		mutate(&cfg)
	}
	tr := trace.MustLookup("602.gcc").Generate(12000)
	simCfg := sim.DefaultConfig()
	base, err := sim.NewRunner(simCfg, sim.WithBaseline()).Run(tr, nil)
	if err != nil {
		b.Fatal(err)
	}
	res, err := sim.NewRunner(simCfg).Run(tr, core.NewController(cfg, pfs))
	if err != nil {
		b.Fatal(err)
	}
	return res.IPCImprovement(base), res.Accuracy
}

func reportAblation(b *testing.B, label string, gain, acc float64) {
	b.Helper()
	b.ReportMetric(100*gain, fmt.Sprintf("%s-dIPC%%", label))
	b.ReportMetric(100*acc, fmt.Sprintf("%s-acc%%", label))
}

func BenchmarkAblationRewardWindow(b *testing.B) {
	for _, w := range []int{64, 256, 1024} {
		w := w
		b.Run(fmt.Sprintf("W%d", w), func(b *testing.B) {
			var gain, acc float64
			for i := 0; i < b.N; i++ {
				gain, acc = ablationRun(b, func(c *core.Config) { c.Window = w }, sources.TableII())
			}
			reportAblation(b, "window", gain, acc)
		})
	}
}

func BenchmarkAblationReplaySize(b *testing.B) {
	for _, n := range []int{500, 2000, 8000} {
		n := n
		b.Run(fmt.Sprintf("R%d", n), func(b *testing.B) {
			var gain, acc float64
			for i := 0; i < b.N; i++ {
				gain, acc = ablationRun(b, func(c *core.Config) { c.ReplayN = n }, sources.TableII())
			}
			reportAblation(b, "replay", gain, acc)
		})
	}
}

func BenchmarkAblationHiddenWidth(b *testing.B) {
	for _, h := range []int{25, 100, 400} {
		h := h
		b.Run(fmt.Sprintf("H%d", h), func(b *testing.B) {
			var gain, acc float64
			for i := 0; i < b.N; i++ {
				gain, acc = ablationRun(b, func(c *core.Config) { c.Hidden = h }, sources.TableII())
			}
			reportAblation(b, "hidden", gain, acc)
		})
	}
}

func BenchmarkAblationHashBits(b *testing.B) {
	for _, bits := range []uint{8, 16, 32} {
		bits := bits
		b.Run(fmt.Sprintf("B%d", bits), func(b *testing.B) {
			var gain, acc float64
			for i := 0; i < b.N; i++ {
				gain, acc = ablationRun(b, func(c *core.Config) { c.HashBits = bits }, sources.TableII())
			}
			reportAblation(b, "hash", gain, acc)
		})
	}
}

func BenchmarkAblationEpsilonDecay(b *testing.B) {
	for _, d := range []float64{20, 80, 640} {
		d := d
		b.Run(fmt.Sprintf("decay%.0f", d), func(b *testing.B) {
			var gain, acc float64
			for i := 0; i < b.N; i++ {
				gain, acc = ablationRun(b, func(c *core.Config) { c.EpsDecay = d }, sources.TableII())
			}
			reportAblation(b, "eps", gain, acc)
		})
	}
}

func BenchmarkAblationEnsembleWidth(b *testing.B) {
	b.Run("four", func(b *testing.B) {
		var gain, acc float64
		for i := 0; i < b.N; i++ {
			gain, acc = ablationRun(b, nil, sources.TableII())
		}
		reportAblation(b, "4pf", gain, acc)
	})
	b.Run("five", func(b *testing.B) {
		var gain, acc float64
		for i := 0; i < b.N; i++ {
			gain, acc = ablationRun(b, nil, experiments.FivePrefetchers())
		}
		reportAblation(b, "5pf", gain, acc)
	})
}

func BenchmarkAblationFixedPointInference(b *testing.B) {
	// Hardware fidelity: how often does the 16-bit fixed-point Q-network
	// (Table VIII's representation) agree with the float network on the
	// selected action, at several fractional widths?
	cfg := core.DefaultConfig()
	cfg.Batch = 32
	tr := trace.MustLookup("602.gcc").Generate(12000)
	for _, frac := range []uint{6, 10, 14} {
		frac := frac
		b.Run(fmt.Sprintf("frac%d", frac), func(b *testing.B) {
			var agree float64
			for i := 0; i < b.N; i++ {
				ctrl := core.NewController(cfg, sources.TableII())
				if _, err := sim.NewRunner(sim.DefaultConfig()).Run(tr, ctrl); err != nil {
					b.Fatal(err)
				}
				agree, _ = ctrl.QuantizationAgreement(frac)
			}
			b.ReportMetric(100*agree, "argmax-agree%")
		})
	}
}

func BenchmarkAblationTargetInterval(b *testing.B) {
	// The role-switch interval I_t: very frequent switches destabilize
	// the bootstrap target, very rare ones slow adaptation.
	for _, it := range []int{5, 20, 200} {
		it := it
		b.Run(fmt.Sprintf("It%d", it), func(b *testing.B) {
			var gain, acc float64
			for i := 0; i < b.N; i++ {
				gain, acc = ablationRun(b, func(c *core.Config) { c.TargetInterval = it }, sources.TableII())
			}
			reportAblation(b, "target", gain, acc)
		})
	}
}
