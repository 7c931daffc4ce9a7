// Package resemble_bench holds the benchmark harness: one testing.B
// benchmark per table and figure of the paper's evaluation (each runs
// the corresponding experiment end to end at a reduced trace length and
// reports the headline numbers via b.ReportMetric), plus
// micro-benchmarks of the per-access hot paths.
//
// Regenerate the full-size artifacts with:
//
//	go run ./cmd/experiments -exp all
package resemble_bench

import (
	"math/rand"
	"testing"

	"resemble/internal/core"
	"resemble/internal/experiments"
	"resemble/internal/mem"
	"resemble/internal/nn"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/bo"
	"resemble/internal/prefetch/domino"
	"resemble/internal/prefetch/isb"
	"resemble/internal/prefetch/spp"
	"resemble/internal/prefetch/voyager"
	"resemble/internal/sim"
	"resemble/internal/sources"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// benchOpts returns reduced-scale experiment options so each benchmark
// iteration stays in the seconds range.
func benchOpts() experiments.Options {
	return experiments.Options{Accesses: 6000, Batch: 32}
}

// --- Figure 1 ---

func BenchmarkFig1Autocorrelation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1a(benchOpts()); err != nil {
			b.Fatal(err)
		}
		if _, err := experiments.Fig1b(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig1cSinglePrefetchers(b *testing.B) {
	var rows []experiments.Fig1cRow
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Fig1c(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(rows) > 0 {
		b.ReportMetric(100*rows[0].Coverage, "bo-milc-cov%")
	}
}

// --- Table IV ---

func BenchmarkTable4ModelSize(b *testing.B) {
	var res experiments.Table4Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Table4(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(res.Sizes) > 0 {
		b.ReportMetric(res.Sizes[0].Entries, "mlp-params")
	}
}

// --- Table VI ---

func BenchmarkTable6AvgRewards(b *testing.B) {
	var rows []experiments.Table6Row
	var err error
	for i := 0; i < b.N; i++ {
		rows, err = experiments.Table6(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, r := range rows {
		if r.Variant == "mlp" && r.Suite == "SPEC06" {
			b.ReportMetric(r.AvgReward, "mlp-spec06-reward")
		}
	}
}

// --- Figures 6 and 7 ---

func BenchmarkFig6LearningCurves(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6(benchOpts()); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7ActionStudy(b *testing.B) {
	var studies []experiments.ActionStudy
	var err error
	for i := 0; i < b.N; i++ {
		studies, err = experiments.Fig7(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	if len(studies) > 0 {
		b.ReportMetric(studies[0].SwitchRate, "mlp-switch-rate")
	}
}

// --- Figures 8, 9, 10 ---

func sweep(b *testing.B) []experiments.EnsembleResult {
	b.Helper()
	res, err := experiments.Fig8to10(benchOpts())
	if err != nil {
		b.Fatal(err)
	}
	return res
}

func findSource(res []experiments.EnsembleResult, name string) experiments.EnsembleResult {
	for _, r := range res {
		if r.Source == name {
			return r
		}
	}
	return experiments.EnsembleResult{}
}

func BenchmarkFig8Accuracy(b *testing.B) {
	var res []experiments.EnsembleResult
	for i := 0; i < b.N; i++ {
		res = sweep(b)
	}
	b.ReportMetric(100*findSource(res, "resemble").AvgAccuracy, "resemble-acc%")
	b.ReportMetric(100*findSource(res, "sbp-e").AvgAccuracy, "sbp-acc%")
}

func BenchmarkFig9Coverage(b *testing.B) {
	var res []experiments.EnsembleResult
	for i := 0; i < b.N; i++ {
		res = sweep(b)
	}
	b.ReportMetric(100*findSource(res, "resemble").AvgCoverage, "resemble-cov%")
}

func BenchmarkFig10IPC(b *testing.B) {
	var res []experiments.EnsembleResult
	for i := 0; i < b.N; i++ {
		res = sweep(b)
	}
	b.ReportMetric(100*findSource(res, "resemble").AvgIPCGain, "resemble-dIPC%")
	b.ReportMetric(100*findSource(res, "spp").AvgIPCGain, "spp-dIPC%")
}

// --- Figure 11 ---

func BenchmarkFig11LatencySweep(b *testing.B) {
	var pts []experiments.Fig11Point
	var err error
	for i := 0; i < b.N; i++ {
		pts, err = experiments.Fig11(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range pts {
		if p.Latency == 40 && p.HighThroughput {
			b.ReportMetric(100*p.AvgIPCGain, "hiTP-40cyc-dIPC%")
		}
	}
}

// --- Figure 12 ---

func BenchmarkFig12Voyager(b *testing.B) {
	var res experiments.Fig12Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = experiments.Fig12(benchOpts())
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*res.GeoEnsembleVoyager, "resemble+V-dIPC%")
}

// --- Micro-benchmarks: per-access hot paths ---

func benchTrace(n int) *trace.Trace {
	return trace.MustLookup("602.gcc").Generate(n)
}

func benchObserve(b *testing.B, p prefetch.Prefetcher) {
	b.Helper()
	tr := benchTrace(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tr.Records[i%tr.Len()]
		p.Observe(prefetch.AccessContext{Index: i, ID: r.ID, PC: r.PC, Addr: r.Addr, Line: r.Line()})
	}
}

func BenchmarkBOObserve(b *testing.B)     { benchObserve(b, bo.New(bo.Config{})) }
func BenchmarkSPPObserve(b *testing.B)    { benchObserve(b, spp.New(spp.Config{})) }
func BenchmarkISBObserve(b *testing.B)    { benchObserve(b, isb.New(isb.Config{})) }
func BenchmarkDominoObserve(b *testing.B) { benchObserve(b, domino.New(domino.Config{})) }
func BenchmarkVoyagerObserve(b *testing.B) {
	benchObserve(b, voyager.New(voyager.Config{}))
}

// BenchmarkMLPForward times one serving-side forward pass at the
// paper's 4→100→5 geometry the way the controller issues it, ForwardInto
// with a reused dst: float, and 16-bit fixed point with 10 fractional
// bits (core.Config.FixedFrac, Table VIII's operating point).
func BenchmarkMLPForward(b *testing.B) {
	m := nn.NewMLP(rand.New(rand.NewSource(1)), nn.ReLU, 4, 100, 5)
	f, err := nn.Quantize(m, 10)
	if err != nil {
		b.Fatal(err)
	}
	x := []float64{0.1, 0.2, 0.3, 0.4}
	for _, bm := range []struct {
		name string
		fw   nn.Forwarder
	}{{"float", m}, {"fixed", f}} {
		b.Run(bm.name, func(b *testing.B) {
			dst := make([]float64, bm.fw.OutputDim())
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				dst = bm.fw.ForwardInto(dst, x)
			}
		})
	}
}

func BenchmarkMLPTrainStep(b *testing.B) {
	m := nn.NewMLP(rand.New(rand.NewSource(1)), nn.ReLU, 4, 100, 5)
	x := []float64{0.1, 0.2, 0.3, 0.4}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.TrainStep(x, i%5, 1.0, 0.05)
	}
}

func BenchmarkControllerOnAccess(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.Batch = 32
	ctrl := core.NewController(cfg, sources.TableII())
	tr := benchTrace(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tr.Records[i%tr.Len()]
		ctrl.OnAccess(prefetch.AccessContext{Index: i, ID: r.ID, PC: r.PC, Addr: r.Addr, Line: r.Line()})
	}
}

func BenchmarkTabularOnAccess(b *testing.B) {
	ctrl := core.NewTabularController(core.DefaultConfig(), sources.TableII())
	tr := benchTrace(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := tr.Records[i%tr.Len()]
		ctrl.OnAccess(prefetch.AccessContext{Index: i, ID: r.ID, PC: r.PC, Addr: r.Addr, Line: r.Line()})
	}
}

func BenchmarkSimulatorBaseline(b *testing.B) {
	tr := benchTrace(20000)
	cfg := sim.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.NewRunner(cfg, sim.WithBaseline()).Run(tr, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.Len()), "accesses/op")
}

// BenchmarkSimulatorTelemetry measures the same baseline simulation
// with the telemetry layer enabled (window snapshots into a memory
// sink, 1-in-64 sampled event tracing, all counters live). Comparing
// against BenchmarkSimulatorBaseline bounds the observability overhead;
// the budget is < 5% slowdown (see DESIGN.md for recorded numbers).
func BenchmarkSimulatorTelemetry(b *testing.B) {
	tr := benchTrace(20000)
	cfg := sim.DefaultConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		tel, err := telemetry.New(telemetry.Config{TraceSample: 64})
		if err != nil {
			b.Fatal(err)
		}
		tel.AddWindowSink(&telemetry.MemoryWindowSink{})
		b.StartTimer()
		if _, err := sim.NewRunner(cfg, sim.WithTelemetry(tel)).Run(tr, nil); err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := tel.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(tr.Len()), "accesses/op")
}

func BenchmarkFoldHash(b *testing.B) {
	var sink uint64
	for i := 0; i < b.N; i++ {
		sink += mem.FoldHash(uint64(i)*0x9e3779b97f4a7c15, 16)
	}
	_ = sink
}
