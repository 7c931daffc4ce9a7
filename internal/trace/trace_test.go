package trace

import (
	"bytes"
	"errors"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"resemble/internal/mem"
)

func TestAppendAssignsIDs(t *testing.T) {
	tr := &Trace{}
	tr.Append(0x400, 0x1000, 3)
	tr.Append(0x404, 0x1040, 2)
	tr.Append(0x408, 0x1080, 0)
	if tr.Records[0].ID != 3 {
		t.Errorf("first ID = %d, want 3", tr.Records[0].ID)
	}
	if tr.Records[1].ID != 3+2+1 {
		t.Errorf("second ID = %d, want 6", tr.Records[1].ID)
	}
	if tr.Records[2].ID != 6+0+1 {
		t.Errorf("third ID = %d, want 7", tr.Records[2].ID)
	}
	if got := tr.Instructions(); got != 8 {
		t.Errorf("Instructions = %d, want 8", got)
	}
}

func TestComputeStats(t *testing.T) {
	tr := &Trace{}
	tr.Append(0x400, 0x1000, 1)
	tr.Append(0x400, 0x1004, 1) // same line
	tr.Append(0x404, 0x2000, 1) // new line, new page
	s := tr.ComputeStats()
	if s.Accesses != 3 || s.UniquePCs != 2 || s.UniqueLines != 2 || s.UniquePages != 2 {
		t.Errorf("unexpected stats: %+v", s)
	}
}

func TestGroupByPCPreservesOrderWithinPC(t *testing.T) {
	tr := &Trace{}
	tr.Append(2, 100<<mem.BlockBits, 1)
	tr.Append(1, 200<<mem.BlockBits, 1)
	tr.Append(2, 101<<mem.BlockBits, 1)
	tr.Append(1, 201<<mem.BlockBits, 1)
	g := tr.GroupByPC()
	wantLines := []mem.Line{200, 201, 100, 101}
	for i, w := range wantLines {
		if g.Records[i].Line() != w {
			t.Errorf("record %d line = %d, want %d", i, g.Records[i].Line(), w)
		}
	}
	if g.Len() != tr.Len() {
		t.Errorf("grouped length %d != original %d", g.Len(), tr.Len())
	}
}

func TestSliceClamps(t *testing.T) {
	tr := &Trace{}
	for i := 0; i < 10; i++ {
		tr.Append(1, uint64(i)<<mem.BlockBits, 1)
	}
	if got := tr.Slice(-5, 3).Len(); got != 3 {
		t.Errorf("Slice(-5,3) len = %d, want 3", got)
	}
	if got := tr.Slice(8, 100).Len(); got != 2 {
		t.Errorf("Slice(8,100) len = %d, want 2", got)
	}
	if got := tr.Slice(7, 2).Len(); got != 0 {
		t.Errorf("Slice(7,2) len = %d, want 0", got)
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	w := MustLookup("433.milc")
	tr := w.Generate(500)
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		t.Fatalf("Write: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if got.Name != tr.Name {
		t.Errorf("name = %q, want %q", got.Name, tr.Name)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("record count = %d, want %d", len(got.Records), len(tr.Records))
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d mismatch: %+v != %+v", i, got.Records[i], tr.Records[i])
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("NOTATRACE........."))); !errors.Is(err, ErrBadMagic) {
		t.Errorf("err = %v, want ErrBadMagic", err)
	}
}

func TestTextRoundTrip(t *testing.T) {
	w := MustLookup("471.omnetpp")
	tr := w.Generate(200)
	var buf bytes.Buffer
	if err := WriteText(&buf, tr); err != nil {
		t.Fatalf("WriteText: %v", err)
	}
	got, err := ReadText(&buf)
	if err != nil {
		t.Fatalf("ReadText: %v", err)
	}
	if got.Name != tr.Name {
		t.Errorf("name = %q, want %q", got.Name, tr.Name)
	}
	if len(got.Records) != len(tr.Records) {
		t.Fatalf("record count = %d, want %d", len(got.Records), len(tr.Records))
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	for _, name := range Names() {
		w := MustLookup(name)
		a := w.Generate(300)
		b := w.Generate(300)
		if len(a.Records) != 300 || len(b.Records) != 300 {
			t.Fatalf("%s: wrong length %d/%d", name, len(a.Records), len(b.Records))
		}
		for i := range a.Records {
			if a.Records[i] != b.Records[i] {
				t.Fatalf("%s: record %d differs between equal-seed runs", name, i)
			}
		}
	}
}

func TestGeneratorsSeedSensitive(t *testing.T) {
	w := MustLookup("hybrid.random")
	a := w.GenerateSeeded(100, 1)
	b := w.GenerateSeeded(100, 2)
	same := 0
	for i := range a.Records {
		if a.Records[i].Addr == b.Records[i].Addr {
			same++
		}
	}
	if same > 50 {
		t.Errorf("different seeds produced %d/100 identical addresses", same)
	}
}

func TestStreamGenIsSequential(t *testing.T) {
	tr := StreamGen{Regions: 1, RegionLines: 1 << 20, PCs: 1}.Generate(100, 7)
	for i := 1; i < len(tr.Records); i++ {
		d := int64(tr.Records[i].Line()) - int64(tr.Records[i-1].Line())
		if d != 1 {
			t.Fatalf("access %d: line delta = %d, want 1", i, d)
		}
	}
}

func TestStrideGenPerPCStride(t *testing.T) {
	tr := StrideGen{Strides: []int{3, 7}, StreamLen: 1 << 20}.Generate(200, 7)
	last := map[uint64]uint64{}
	wantByPC := map[uint64]int64{}
	for i, r := range tr.Records {
		if prev, ok := last[r.PC]; ok {
			d := int64(r.Line()) - int64(prev)
			if want, seen := wantByPC[r.PC]; seen {
				if d != want {
					t.Fatalf("access %d pc %x: delta %d, want %d", i, r.PC, d, want)
				}
			} else {
				wantByPC[r.PC] = d
			}
		}
		last[r.PC] = r.Line()
	}
	if len(wantByPC) != 2 {
		t.Fatalf("expected 2 strided PC streams, got %d", len(wantByPC))
	}
}

func TestPointerChasePerPCPeriodicity(t *testing.T) {
	g := PointerChaseGen{Chains: 2, ChainLen: 10, SwitchEvery: 5}
	tr := g.Generate(400, 9)
	// Per PC, the address sequence must be periodic with period 10.
	byPC := map[uint64][]uint64{}
	for _, r := range tr.Records {
		byPC[r.PC] = append(byPC[r.PC], r.Addr)
	}
	for pc, seq := range byPC {
		for i := 10; i < len(seq); i++ {
			if seq[i] != seq[i-10] {
				t.Fatalf("pc %x: sequence not periodic at %d", pc, i)
			}
		}
	}
}

func TestTemporalLoopRepeats(t *testing.T) {
	g := TemporalLoopGen{SeqLen: 50, PerturbProb: 0, PCs: 3}
	tr := g.Generate(200, 11)
	for i := 50; i < len(tr.Records); i++ {
		if tr.Records[i].Addr != tr.Records[i-50].Addr {
			t.Fatalf("access %d: temporal loop not repeating", i)
		}
	}
}

func TestPhaseGenLength(t *testing.T) {
	g := PhaseGen{PhaseLen: 30, Subs: []Generator{
		StreamGen{Regions: 1, RegionLines: 100, PCs: 1},
		RandomGen{Lines: 100, PCs: 1},
	}}
	tr := g.Generate(100, 3)
	if tr.Len() != 100 {
		t.Fatalf("PhaseGen length = %d, want 100", tr.Len())
	}
}

func TestInterleaveGenAlternates(t *testing.T) {
	g := InterleaveGen{Subs: []Generator{
		StreamGen{Regions: 1, RegionLines: 1 << 20, PCs: 1},
		TemporalLoopGen{SeqLen: 10, PCs: 1},
	}}
	tr := g.Generate(40, 3)
	if tr.Len() != 40 {
		t.Fatalf("length = %d, want 40", tr.Len())
	}
	// Even positions come from the stream generator: sequential lines.
	for i := 2; i < 40; i += 2 {
		d := int64(tr.Records[i].Line()) - int64(tr.Records[i-2].Line())
		if d != 1 {
			t.Fatalf("interleaved stream broken at %d (delta %d)", i, d)
		}
	}
}

func TestSuiteRegistry(t *testing.T) {
	if _, err := Lookup("no.such.workload"); err == nil {
		t.Error("Lookup of unknown workload should fail")
	}
	for _, s := range Suites() {
		ws := SuiteWorkloads(s)
		if len(ws) == 0 {
			t.Errorf("suite %s has no workloads", s)
		}
		for _, w := range ws {
			if w.Suite != s {
				t.Errorf("workload %s reports suite %s, want %s", w.Name, w.Suite, s)
			}
		}
	}
	if n := len(MotivationWorkloads()); n != 4 {
		t.Errorf("motivation workloads = %d, want 4", n)
	}
	if n := len(CaseStudyWorkloads()); n != 4 {
		t.Errorf("case-study workloads = %d, want 4", n)
	}
	if n := len(EvaluationWorkloads()); n < 10 {
		t.Errorf("evaluation workloads = %d, want >= 10", n)
	}
}

func TestWorkloadNamesStable(t *testing.T) {
	// The experiment harness hard-codes these names; keep them present.
	for _, name := range []string{
		"433.milc", "433.lbm", "471.omnetpp", "429.mcf",
		"621.wrf", "623.xalancbmk", "654.roms", "602.gcc",
		"gap.bfs", "gap.pr", "gap.cc",
		"hybrid.phases", "hybrid.interleave", "hybrid.random", "hybrid.markov",
	} {
		if _, err := Lookup(name); err != nil {
			t.Errorf("expected workload %q registered: %v", name, err)
		}
	}
}

func TestGraphGensProduceMixedPatterns(t *testing.T) {
	for _, g := range []Generator{
		GraphBFSGen{Vertices: 512, AvgDegree: 6},
		GraphPageRankGen{Vertices: 512, AvgDegree: 6},
		GraphCCGen{Vertices: 512, AvgDegree: 6},
	} {
		tr := g.Generate(2000, 5)
		if tr.Len() != 2000 {
			t.Fatalf("%s: length %d", g.Name(), tr.Len())
		}
		s := tr.ComputeStats()
		if s.UniqueLines < 50 {
			t.Errorf("%s: only %d unique lines, expected irregular spread", g.Name(), s.UniqueLines)
		}
		if s.UniquePCs < 2 {
			t.Errorf("%s: only %d unique PCs", g.Name(), s.UniquePCs)
		}
	}
}

func TestMarkovGenVisitsFixedNodeSet(t *testing.T) {
	g := MarkovGen{Nodes: 64, Fanout: 3, Skew: 0.8, PCs: 2}
	tr := g.Generate(5000, 11)
	s := tr.ComputeStats()
	if s.UniqueLines > 64 {
		t.Errorf("markov walk visited %d lines, node set is 64", s.UniqueLines)
	}
	if s.UniqueLines < 8 {
		t.Errorf("markov walk too collapsed: %d lines", s.UniqueLines)
	}
	// High-skew chains revisit edges: the most common bigram should
	// repeat far above chance.
	bigrams := map[[2]uint64]int{}
	for i := 1; i < tr.Len(); i++ {
		bigrams[[2]uint64{tr.Records[i-1].Addr, tr.Records[i].Addr}]++
	}
	maxCount := 0
	for _, c := range bigrams {
		if c > maxCount {
			maxCount = c
		}
	}
	if maxCount < 20 {
		t.Errorf("top bigram count %d, expected strong repetition", maxCount)
	}
}

func TestDeltaSeries(t *testing.T) {
	tr := &Trace{}
	tr.Append(1, 0<<mem.BlockBits, 1)
	tr.Append(1, 5<<mem.BlockBits, 1)
	tr.Append(1, 2<<mem.BlockBits, 1)
	d := tr.DeltaSeries()
	if len(d) != 2 || d[0] != 5 || d[1] != -3 {
		t.Errorf("DeltaSeries = %v, want [5 -3]", d)
	}
	if (&Trace{}).DeltaSeries() != nil {
		t.Error("empty trace should yield nil deltas")
	}
}

func TestPCGroups(t *testing.T) {
	tr := &Trace{}
	tr.Append(2, 100<<mem.BlockBits, 1)
	tr.Append(1, 200<<mem.BlockBits, 1)
	tr.Append(2, 101<<mem.BlockBits, 1)
	groups := tr.PCGroups()
	if len(groups) != 2 {
		t.Fatalf("groups = %d, want 2", len(groups))
	}
	if groups[0].Records[0].PC != 1 || groups[1].Records[0].PC != 2 {
		t.Error("groups not sorted by PC")
	}
	if groups[1].Len() != 2 || groups[1].Records[1].Line() != 101 {
		t.Error("within-PC order not preserved")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	// Property: arbitrary record contents survive the binary format.
	f := func(seed int64, name string) bool {
		if len(name) > 100 {
			name = name[:100]
		}
		rng := rand.New(rand.NewSource(seed))
		tr := &Trace{Name: name}
		n := rng.Intn(50)
		for i := 0; i < n; i++ {
			tr.Records = append(tr.Records, Record{
				ID:   rng.Uint64(),
				PC:   rng.Uint64(),
				Addr: rng.Uint64(),
				Gap:  rng.Uint32(),
			})
		}
		var buf bytes.Buffer
		if err := Write(&buf, tr); err != nil {
			return false
		}
		got, err := Read(&buf)
		if err != nil || got.Name != tr.Name || len(got.Records) != len(tr.Records) {
			return false
		}
		for i := range tr.Records {
			if got.Records[i] != tr.Records[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestLineSeriesMatchesRecords(t *testing.T) {
	tr := MustLookup("433.lbm").Generate(64)
	s := tr.LineSeries()
	if len(s) != tr.Len() {
		t.Fatalf("series length %d != %d", len(s), tr.Len())
	}
	for i, r := range tr.Records {
		if s[i] != float64(r.Line()) {
			t.Fatalf("series[%d] = %v, want %v", i, s[i], float64(r.Line()))
		}
	}
}

// TestDerivedBuildsOnce: concurrent first callers of Derived with one
// key share a single build, and another key gets its own value.
func TestDerivedBuildsOnce(t *testing.T) {
	tr := &Trace{Name: "derived"}
	tr.Append(0x400000, 0x1000, 0)
	var builds atomic.Int32
	build := func() any {
		builds.Add(1)
		return new(int)
	}
	var wg sync.WaitGroup
	got := make([]any, 8)
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = tr.Derived("k", build)
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("%d builds for one key, want 1", n)
	}
	for _, v := range got[1:] {
		if v != got[0] {
			t.Fatal("callers of one key got different values")
		}
	}
	if other := tr.Derived("other", build); other == got[0] || builds.Load() != 2 {
		t.Fatal("a second key must get its own build")
	}
}
