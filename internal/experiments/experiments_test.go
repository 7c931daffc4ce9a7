package experiments

import (
	"bytes"
	"strings"
	"testing"

	"resemble/internal/sources"
)

// tinyOpts keeps experiment smoke tests fast.
func tinyOpts() Options {
	return Options{Accesses: 3000, Batch: 16}
}

func TestFig1aShape(t *testing.T) {
	res, err := Fig1a(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 {
		t.Fatalf("expected 4 motivation workloads, got %d", len(res))
	}
	byName := map[string]ACResult{}
	for _, r := range res {
		byName[r.Workload] = r
		if len(r.AC) != maxLag+1 {
			t.Errorf("%s: %d lags, want %d", r.Workload, len(r.AC), maxLag+1)
		}
		if r.AC[0] < 0.999 {
			t.Errorf("%s: ac[0] = %v, want 1", r.Workload, r.AC[0])
		}
	}
	// The paper's observation: the spatial workloads (milc, wrf) show
	// strong periodic structure; the pointer-chasing ones do not.
	milc, omnetpp := byName["433.milc"], byName["471.omnetpp"]
	if milc.MaxAbsAC <= omnetpp.MaxAbsAC {
		t.Errorf("milc periodicity (%.2f) should exceed omnetpp's (%.2f)",
			milc.MaxAbsAC, omnetpp.MaxAbsAC)
	}
	if wrf := byName["621.wrf"]; wrf.MaxAbsAC < 0.3 {
		t.Errorf("wrf delta signature should autocorrelate strongly, got %.2f", wrf.MaxAbsAC)
	}
}

func TestFig1bPCGroupingHelpsTemporal(t *testing.T) {
	global, err := Fig1a(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	grouped, err := Fig1b(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	find := func(rs []ACResult, name string) ACResult {
		for _, r := range rs {
			if r.Workload == name {
				return r
			}
		}
		t.Fatalf("workload %s missing", name)
		return ACResult{}
	}
	// The paper's Fig 1b observation: PC grouping strengthens the
	// autocorrelation of the PC-localized temporal workloads (their
	// per-PC streams are periodic pointer chains).
	for _, name := range []string{"471.omnetpp", "623.xalancbmk"} {
		g := find(global, name)
		p := find(grouped, name)
		if p.MaxAbsAC <= g.MaxAbsAC {
			t.Errorf("%s: PC grouping should strengthen periodicity (%.2f -> %.2f)",
				name, g.MaxAbsAC, p.MaxAbsAC)
		}
	}
	// And milc collapses to trivial constant per-PC deltas ("faster
	// decay" in the paper's words).
	if milc := find(grouped, "433.milc"); milc.MaxAbsAC > 0.5 {
		t.Errorf("milc per-PC deltas should be near-constant, AC %.2f", milc.MaxAbsAC)
	}
}

func TestFig1cAffinity(t *testing.T) {
	// ISB needs at least one full pass over the pointer-chase chains
	// (~7K lines) before it can replay them, so this test uses a longer
	// trace than the other smoke tests.
	rows, err := Fig1c(Options{Accesses: 20000, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 8 {
		t.Fatalf("expected 8 rows (4 workloads x 2 prefetchers), got %d", len(rows))
	}
	byKey := map[string]Fig1cRow{}
	for _, r := range rows {
		byKey[r.Workload+"/"+r.Prefetcher] = r
	}
	if b, i := byKey["433.milc/bo"], byKey["433.milc/isb"]; b.Coverage <= i.Coverage {
		t.Errorf("BO should out-cover ISB on milc: %.3f vs %.3f", b.Coverage, i.Coverage)
	}
	if b, i := byKey["471.omnetpp/bo"], byKey["471.omnetpp/isb"]; i.Coverage <= b.Coverage {
		t.Errorf("ISB should out-cover BO on omnetpp: %.3f vs %.3f", i.Coverage, b.Coverage)
	}
}

func TestTable4Structure(t *testing.T) {
	res, err := Table4(tinyOpts())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sizes) != 5 {
		t.Fatalf("expected 5 size rows (1 MLP + 2 direct + 2 token), got %d", len(res.Sizes))
	}
	if res.Sizes[0].Entries != 1005 {
		t.Errorf("MLP params = %v, want 1005", res.Sizes[0].Entries)
	}
	if res.MeasuredUniqueStates[4] <= 0 || res.MeasuredUniqueStates[8] <= 0 {
		t.Error("unique states not measured")
	}
	if res.MeasuredUniqueStates[4] > res.MeasuredUniqueStates[8] {
		t.Errorf("4-bit states (%d) exceed 8-bit states (%d)",
			res.MeasuredUniqueStates[4], res.MeasuredUniqueStates[8])
	}
}

func TestTable7Render(t *testing.T) {
	var buf bytes.Buffer
	f, p := Table7(Options{Out: &buf})
	if f.Total <= 0 || p.Total != 22 {
		t.Errorf("totals: formula %d, paper %d", f.Total, p.Total)
	}
	if !strings.Contains(buf.String(), "Table VII") {
		t.Error("missing render header")
	}
}

func TestTable8Render(t *testing.T) {
	var buf bytes.Buffer
	est := Table8(Options{Out: &buf})
	if est.MLPBytes <= 0 || est.ReplayBytes <= 0 {
		t.Errorf("estimates: %+v", est)
	}
	if !strings.Contains(buf.String(), "Table VIII") {
		t.Error("missing render header")
	}
}

func TestPrintConfig(t *testing.T) {
	var buf bytes.Buffer
	PrintConfig(Options{Out: &buf})
	out := buf.String()
	for _, want := range []string{"Table II", "Table III", "Table V", "SPEC06", "GAP"} {
		if !strings.Contains(out, want) {
			t.Errorf("config output missing %q", want)
		}
	}
}

func TestRegistryComplete(t *testing.T) {
	for _, id := range ExperimentIDs() {
		if _, ok := Registry[id]; !ok {
			t.Errorf("experiment id %q missing from registry", id)
		}
	}
	// Every paper artifact must have an id.
	for _, id := range []string{"fig1a", "fig1b", "fig1c", "table4", "table6",
		"fig6", "fig7", "fig8", "fig9", "fig10", "table7", "fig11", "table8", "fig12"} {
		found := false
		for _, have := range ExperimentIDs() {
			if have == id {
				found = true
			}
		}
		if !found {
			t.Errorf("paper artifact %q has no experiment id", id)
		}
	}
}

func TestSourceSetBuildsAll(t *testing.T) {
	set := EvaluationSources()
	for _, name := range set.Names {
		src := set.Build(name, tinyOpts())
		if src == nil {
			t.Errorf("source %q built nil", name)
		}
		if src.Name() == "" {
			t.Errorf("source %q has empty name", name)
		}
	}
}

func TestPrefetcherSets(t *testing.T) {
	if n := len(sources.TableII()); n != 4 {
		t.Errorf("TableII = %d", n)
	}
	if n := len(VoyagerPrefetchers()); n != 4 {
		t.Errorf("VoyagerPrefetchers = %d", n)
	}
	if n := len(FivePrefetchers()); n != 5 {
		t.Errorf("FivePrefetchers = %d", n)
	}
	// The Voyager set must contain the LSTM prefetcher, not Domino.
	names := map[string]bool{}
	for _, p := range VoyagerPrefetchers() {
		names[p.Name()] = true
	}
	if !names["voyager"] || names["domino"] {
		t.Errorf("voyager set wrong: %v", names)
	}
}

func TestTable6Structure(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 18 controller simulations")
	}
	rows, err := Table6(Options{Accesses: 2500, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 18 { // 6 variants x 3 suites
		t.Fatalf("expected 18 cells, got %d", len(rows))
	}
	for _, r := range rows {
		// Rewards are degree-aware (±1 per issued line, up to the sim's
		// MaxDegree of 4 lines per access), so a 1K window spans ±4000.
		if r.AvgReward < -4000*1.01 || r.AvgReward > 4000*1.01 {
			t.Errorf("%s/%s: reward %v outside [-4000,4000] per 1K window", r.Variant, r.Suite, r.AvgReward)
		}
	}
}

func TestMulticoreSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-core sweeps")
	}
	res, err := Multicore(Options{Accesses: 6000, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Mix) != 4 || len(res.PerCoreGain) != 4 {
		t.Fatalf("unexpected shape: %+v", res)
	}
	if res.ResembleSpeedup <= 0 || res.SBPSpeedup <= 0 {
		t.Errorf("speedups not positive: %+v", res)
	}
}

func TestBudgetSensitivitySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("budget sweeps")
	}
	pts, err := BudgetSensitivity(Options{Accesses: 5000, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 3 {
		t.Fatalf("points = %d, want 3", len(pts))
	}
	for _, p := range pts {
		if p.AvgCoverage < 0 || p.AvgCoverage > 1 {
			t.Errorf("coverage %v out of range at scale %v", p.AvgCoverage, p.Scale)
		}
	}
}

func TestTaxonomySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every prefetcher")
	}
	rows, err := Taxonomy(Options{Accesses: 5000, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 10 {
		t.Fatalf("rows = %d, want 10 prefetchers", len(rows))
	}
	classes := map[string]bool{}
	for _, r := range rows {
		classes[r.Class] = true
		if r.AvgAccuracy < 0 || r.AvgAccuracy > 1 {
			t.Errorf("%s accuracy %v out of range", r.Prefetcher, r.AvgAccuracy)
		}
	}
	for _, c := range []string{"spatial", "temporal", "spa-temp", "neural"} {
		if !classes[c] {
			t.Errorf("taxonomy missing class %s", c)
		}
	}
}

func TestFig11Monotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("latency sweep")
	}
	pts, err := Fig11(Options{Accesses: 4000, Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 10 {
		t.Fatalf("expected 10 points, got %d", len(pts))
	}
	// At 40 cycles the low-TP controller must not beat high-TP.
	var hi40, lo40 Fig11Point
	for _, p := range pts {
		if p.Latency == 40 {
			if p.HighThroughput {
				hi40 = p
			} else {
				lo40 = p
			}
		}
	}
	if lo40.AvgCoverage > hi40.AvgCoverage+0.02 {
		t.Errorf("low TP coverage (%.3f) beat high TP (%.3f) at 40 cycles",
			lo40.AvgCoverage, hi40.AvgCoverage)
	}
}
