package multicore

import (
	"fmt"
	"math"
	"testing"

	"resemble/internal/core"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/bo"
	"resemble/internal/prefetch/domino"
	"resemble/internal/prefetch/isb"
	"resemble/internal/prefetch/spp"
	"resemble/internal/sim"
	"resemble/internal/trace"
)

func pfSet() []prefetch.Prefetcher {
	return []prefetch.Prefetcher{
		bo.New(bo.Config{}), spp.New(spp.Config{}),
		isb.New(isb.Config{}), domino.New(domino.Config{}),
	}
}

func controller() sim.Source {
	cfg := core.DefaultConfig()
	cfg.Batch = 32
	return core.NewController(cfg, pfSet())
}

func TestEmptyInputsRejected(t *testing.T) {
	if _, err := Run(DefaultConfig(), nil); err == nil {
		t.Error("no cores accepted")
	}
	if _, err := Run(DefaultConfig(), []Core{{Trace: &trace.Trace{}}}); err == nil {
		t.Error("empty trace accepted")
	}
}

// TestSingleCoreMatchesSim holds a one-core run to the single-core
// simulator: with the core's LLC, DRAM channel and in-flight fills to
// itself, it must reproduce sim's result exactly, with no source and
// with a prefetcher.
func TestSingleCoreMatchesSim(t *testing.T) {
	sources := map[string]func() sim.Source{
		"none": func() sim.Source { return nil },
		"bo":   func() sim.Source { return sim.FromPrefetcher(bo.New(bo.Config{}), 4) },
	}
	var boIssued uint64
	for _, name := range []string{"433.lbm", "471.omnetpp", "429.mcf", "433.milc"} {
		tr := trace.MustLookup(name).Generate(20000)
		for srcName, mk := range sources {
			t.Run(name+"/"+srcName, func(t *testing.T) {
				res, err := Run(DefaultConfig(), []Core{{Trace: tr, Source: mk()}})
				if err != nil {
					t.Fatal(err)
				}
				if len(res.PerCore) != 1 {
					t.Fatalf("cores = %d", len(res.PerCore))
				}
				want, err := sim.NewRunner(sim.DefaultConfig()).Run(tr, mk())
				if err != nil {
					t.Fatal(err)
				}
				got := res.PerCore[0].Result
				for _, f := range []struct {
					name      string
					got, want any
				}{
					{"Instructions", got.Instructions, want.Instructions},
					{"Cycles", got.Cycles, want.Cycles},
					{"IPC", got.IPC, want.IPC},
					{"LLCAccesses", got.LLCAccesses, want.LLCAccesses},
					{"LLCMisses", got.LLCMisses, want.LLCMisses},
					{"PrefetchesIssued", got.PrefetchesIssued, want.PrefetchesIssued},
					{"LatePrefetchHits", got.LatePrefetchHits, want.LatePrefetchHits},
				} {
					if f.got != f.want {
						t.Errorf("%s = %v, sim gives %v", f.name, f.got, f.want)
					}
				}
				if srcName == "bo" {
					boIssued += got.PrefetchesIssued
				}
			})
		}
	}
	if boIssued == 0 {
		t.Error("bo issued no prefetches on any workload")
	}
}

// TestSingleCoreSharedLLCIsMeasuredRegion: on one core the shared
// LLC's statistics cover exactly sim's measured region, warmup left
// out.
func TestSingleCoreSharedLLCIsMeasuredRegion(t *testing.T) {
	tr := trace.MustLookup("433.milc").Generate(20000)
	res, err := Run(DefaultConfig(), []Core{{Trace: tr, Source: sim.FromPrefetcher(bo.New(bo.Config{}), 4)}})
	if err != nil {
		t.Fatal(err)
	}
	want, err := sim.NewRunner(sim.DefaultConfig()).Run(tr, sim.FromPrefetcher(bo.New(bo.Config{}), 4))
	if err != nil {
		t.Fatal(err)
	}
	if got := res.SharedLLC; got != want.Caches["LLC"] {
		t.Errorf("SharedLLC = %+v, sim's measured LLC = %+v", got, want.Caches["LLC"])
	}
	if res.SharedLLC.Accesses != res.PerCore[0].Result.LLCAccesses {
		t.Errorf("SharedLLC counts %d accesses, the core's measured region %d", res.SharedLLC.Accesses, res.PerCore[0].Result.LLCAccesses)
	}
}

// fingerprint renders every field of a per-core result, floats as
// their bits, so a fingerprint match means an identical result.
func fingerprint(cr CoreResult) string {
	r := cr.Result
	return fmt.Sprintf("%d %s/%s instr=%d cycles=%#x ipc=%#x llc=%d miss=%d mpki=%#x issued=%d useful=%d late=%d dropped=%d acc=%#x cov=%#x caches=%v",
		cr.Core, r.Workload, r.Source, r.Instructions, math.Float64bits(r.Cycles), math.Float64bits(r.IPC),
		r.LLCAccesses, r.LLCMisses, math.Float64bits(r.MPKI), r.PrefetchesIssued, r.UsefulPrefetches,
		r.LatePrefetchHits, r.DroppedPrefetches, math.Float64bits(r.Accuracy), math.Float64bits(r.Coverage), r.Caches)
}

// TestFourCoreFingerprint pins every per-core result of a 4-core mix,
// with and without a bo prefetcher on each core, to the values the
// model gave when they were recorded. Any change to the shared timing
// model that moves a single cycle fails it.
func TestFourCoreFingerprint(t *testing.T) {
	want := map[string][]string{
		"none": {
			"0 433.lbm/none instr=260868 cycles=0x4106ebb600000000 ipc=0x3ff63aa70b2e4c3b llc=6400 miss=6400 mpki=0x403888922e27833d issued=0 useful=0 late=0 dropped=0 acc=0x0 cov=0x0 caches=map[]",
			"1 471.omnetpp/none instr=441995 cycles=0x4111445b00000000 ipc=0x3ff8ff69b6a442ee llc=6400 miss=6400 mpki=0x402cf5a89521603e issued=0 useful=0 late=0 dropped=0 acc=0x0 cov=0x0 caches=map[]",
			"2 602.gcc/none instr=319032 cycles=0x410ae0d000000000 ipc=0x3ff72ec737e4b5d0 llc=6400 miss=6400 mpki=0x40340f88f55312de issued=0 useful=0 late=0 dropped=0 acc=0x0 cov=0x0 caches=map[]",
			"3 gap.bfs/none instr=25861 cycles=0x40dced5000000000 ipc=0x3febf0126cfa161f llc=3573 miss=2572 mpki=0x4058dd1b12efdac8 issued=0 useful=0 late=0 dropped=0 acc=0x0 cov=0x0 caches=map[]",
		},
		"bo": {
			"0 433.lbm/bo instr=260868 cycles=0x40fdc7a400000000 ipc=0x40011bf128ebace2 llc=6400 miss=900 mpki=0x400b99a473ec73a4 issued=5500 useful=3605 late=3605 dropped=0 acc=0x0 cov=0x0 caches=map[]",
			"1 471.omnetpp/bo instr=441995 cycles=0x41119d0b00000000 ipc=0x3ff8818b4b6602fd llc=6400 miss=6400 mpki=0x402cf5a89521603e issued=0 useful=0 late=0 dropped=0 acc=0x0 cov=0x0 caches=map[]",
			"2 602.gcc/bo instr=319032 cycles=0x4105ad4a00000000 ipc=0x3ffcbecc3ae97c2c llc=6400 miss=2621 mpki=0x40206e52fa375293 issued=5518 useful=2560 late=2560 dropped=0 acc=0x0 cov=0x0 caches=map[]",
			"3 gap.bfs/bo instr=25861 cycles=0x40e50e3800000000 ipc=0x3fe330e92b449bd5 llc=3573 miss=2419 mpki=0x4057627752ce46e6 issued=2296 useful=62 late=62 dropped=0 acc=0x0 cov=0x0 caches=map[]",
		},
	}
	mix := []string{"433.lbm", "471.omnetpp", "602.gcc", "gap.bfs"}
	traces := make([]*trace.Trace, len(mix))
	for i, name := range mix {
		traces[i] = trace.MustLookup(name).Generate(8000)
	}
	for _, srcName := range []string{"none", "bo"} {
		cores := make([]Core, len(mix))
		for i, tr := range traces {
			cores[i].Trace = tr
			if srcName == "bo" {
				cores[i].Source = sim.FromPrefetcher(bo.New(bo.Config{}), 4)
			}
		}
		res, err := Run(DefaultConfig(), cores)
		if err != nil {
			t.Fatal(err)
		}
		for i, cr := range res.PerCore {
			got := fingerprint(cr)
			if got != want[srcName][i] {
				t.Errorf("%s core %d:\ngot  %s\nwant %s", srcName, i, got, want[srcName][i])
			}
		}
	}
}

func TestContentionReducesIPC(t *testing.T) {
	tr1 := trace.MustLookup("433.lbm").Generate(20000)
	tr2 := trace.MustLookup("471.omnetpp").Generate(20000)
	solo, err := Run(DefaultConfig(), []Core{{Trace: tr1}})
	if err != nil {
		t.Fatal(err)
	}
	duo, err := Run(DefaultConfig(), []Core{{Trace: tr1}, {Trace: tr2}})
	if err != nil {
		t.Fatal(err)
	}
	if duo.PerCore[0].Result.IPC >= solo.PerCore[0].Result.IPC {
		t.Errorf("shared-LLC contention should reduce core 0 IPC: %.3f vs solo %.3f",
			duo.PerCore[0].Result.IPC, solo.PerCore[0].Result.IPC)
	}
}

func TestPerCorePrefetchingHelps(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two multi-core simulations with RL controllers")
	}
	tr1 := trace.MustLookup("433.lbm").Generate(30000)
	tr2 := trace.MustLookup("471.omnetpp").Generate(30000)
	base, err := Run(DefaultConfig(), []Core{{Trace: tr1}, {Trace: tr2}})
	if err != nil {
		t.Fatal(err)
	}
	pf, err := Run(DefaultConfig(), []Core{
		{Trace: tr1, Source: controller()},
		{Trace: tr2, Source: controller()},
	})
	if err != nil {
		t.Fatal(err)
	}
	ws := pf.WeightedSpeedup(base)
	if ws <= 1.0 {
		t.Errorf("per-core ReSemble weighted speedup = %.3f, want > 1", ws)
	}
}

func TestRelocationSeparatesWorkingSets(t *testing.T) {
	// Two cores running the SAME trace: with relocation their lines are
	// disjoint (destructive interference); without, they share lines
	// (constructive: one core's fills hit for the other).
	tr := trace.MustLookup("433.lbm").Generate(15000)
	cfgRel := DefaultConfig()
	rel, err := Run(cfgRel, []Core{{Trace: tr}, {Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	cfgShared := DefaultConfig()
	cfgShared.RelocateCores = false
	shared, err := Run(cfgShared, []Core{{Trace: tr}, {Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if shared.AvgIPC <= rel.AvgIPC {
		t.Errorf("sharing identical data should help: shared %.3f vs relocated %.3f",
			shared.AvgIPC, rel.AvgIPC)
	}
}

func TestWeightedSpeedupIdentity(t *testing.T) {
	tr := trace.MustLookup("429.mcf").Generate(10000)
	res, err := Run(DefaultConfig(), []Core{{Trace: tr}, {Trace: tr}})
	if err != nil {
		t.Fatal(err)
	}
	if ws := res.WeightedSpeedup(res); ws < 0.999 || ws > 1.001 {
		t.Errorf("self weighted speedup = %v, want 1", ws)
	}
	if res.WeightedSpeedup(Result{}) != 0 {
		t.Error("mismatched baseline should return 0")
	}
}

func TestDeterminism(t *testing.T) {
	tr1 := trace.MustLookup("433.milc").Generate(8000)
	tr2 := trace.MustLookup("429.mcf").Generate(8000)
	run := func() Result {
		r, err := Run(DefaultConfig(), []Core{{Trace: tr1}, {Trace: tr2}})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	for i := range a.PerCore {
		if a.PerCore[i].Result.IPC != b.PerCore[i].Result.IPC {
			t.Fatalf("core %d IPC differs between runs", i)
		}
	}
}
