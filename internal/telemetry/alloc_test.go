package telemetry

import (
	"bytes"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
)

//go:noinline
func ballast(n int) []byte { return make([]byte, n) }

func TestAllocAttributionDisabledByDefault(t *testing.T) {
	tel, err := New(Config{KeepWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	sp := tel.StartSpan("t", "phase")
	_ = ballast(1 << 16)
	sp.End()
	tel.EmitWindow(SimWindow{Accesses: 10}, nil)

	if pas := tel.PhaseAllocs(); pas != nil {
		t.Errorf("disabled collector recorded phase allocs: %+v", pas)
	}
	// The JSON output must stay byte-identical to pre-attribution
	// output: no alloc_* keys may appear.
	for _, v := range []any{tel.Spans(), tel.Windows()} {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Contains(b, []byte("alloc_")) {
			t.Errorf("disabled output contains alloc fields: %s", b)
		}
	}
	p := tel.StartAllocPhase("x")
	p.End() // must be a no-op, not a panic
}

func TestAllocAttributionChargesSpansAndWindows(t *testing.T) {
	tel, err := New(Config{KeepWindows: true, AllocAttribution: true})
	if err != nil {
		t.Fatal(err)
	}
	tel.BeginRun("w", "s")
	const n = 1 << 20
	sp := tel.StartSpan("t", "heavy.phase")
	buf := ballast(n)
	sp.End()
	runtime.KeepAlive(buf)
	tel.EmitWindow(SimWindow{Accesses: 10}, nil)

	pas := tel.PhaseAllocs()
	if len(pas) != 1 || pas[0].Phase != "heavy.phase" {
		t.Fatalf("phase allocs = %+v", pas)
	}
	if pas[0].Count != 1 {
		t.Errorf("count = %d, want 1", pas[0].Count)
	}
	if pas[0].AllocBytes < n {
		t.Errorf("alloc bytes = %d, want >= %d", pas[0].AllocBytes, n)
	}
	if pas[0].AllocObjects == 0 {
		t.Error("alloc objects = 0")
	}
	spans := tel.Spans()
	if len(spans) != 1 || spans[0].AllocBytes < n {
		t.Errorf("span record = %+v, want alloc_bytes >= %d", spans, n)
	}
	wins := tel.Windows()
	if len(wins) != 1 || wins[0].AllocBytes < n {
		t.Errorf("window = %+v, want alloc_bytes >= %d", wins, n)
	}
}

func TestStartAllocPhaseAggregates(t *testing.T) {
	tel, err := New(Config{AllocAttribution: true})
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 19
	for i := 0; i < 3; i++ {
		p := tel.StartAllocPhase("checkpoint.save")
		buf := ballast(n)
		p.End()
		runtime.KeepAlive(buf)
	}
	pas := tel.PhaseAllocs()
	if len(pas) != 1 || pas[0].Phase != "checkpoint.save" {
		t.Fatalf("phase allocs = %+v", pas)
	}
	if pas[0].Count != 3 {
		t.Errorf("count = %d, want 3", pas[0].Count)
	}
	if pas[0].AllocBytes < 3*n {
		t.Errorf("alloc bytes = %d, want >= %d", pas[0].AllocBytes, 3*n)
	}
	// Attribution-only phases must not create span records.
	if spans := tel.Spans(); len(spans) != 0 {
		t.Errorf("AllocPhase created spans: %+v", spans)
	}
}

func TestMergeFoldsPhaseAllocs(t *testing.T) {
	// The ballast must be a large object (over 32 KiB). The runtime
	// counts a small object in /gc/heap/allocs only when its mcache
	// span is refilled, which a phase holding a few small allocations
	// may never reach; a large object is counted as it is allocated.
	const size = 1 << 16
	parent, err := New(Config{AllocAttribution: true})
	if err != nil {
		t.Fatal(err)
	}
	sp := parent.StartSpan("t", "shared.phase")
	_ = ballast(size)
	sp.End()

	ch := parent.Child()
	for i := 0; i < 2; i++ {
		sp := ch.StartSpan("t", "shared.phase")
		_ = ballast(size)
		sp.End()
	}
	cp := ch.StartAllocPhase("child.only")
	_ = ballast(size)
	cp.End()
	parent.Merge(ch)

	pas := parent.PhaseAllocs()
	byName := map[string]PhaseAlloc{}
	for _, pa := range pas {
		byName[pa.Phase] = pa
	}
	if got := byName["shared.phase"].Count; got != 3 {
		t.Errorf("shared.phase count = %d, want 3 (%+v)", got, pas)
	}
	if got := byName["child.only"].Count; got != 1 {
		t.Errorf("child.only count = %d, want 1 (%+v)", got, pas)
	}
	if byName["shared.phase"].AllocBytes == 0 {
		t.Error("merged alloc bytes = 0")
	}
}

func TestPhaseAllocsDeterministicOrder(t *testing.T) {
	tel, err := New(Config{AllocAttribution: true})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"zz", "aa", "mm"} {
		p := tel.StartAllocPhase(name)
		p.End()
	}
	pas := tel.PhaseAllocs()
	names := make([]string, len(pas))
	for i, pa := range pas {
		names[i] = pa.Phase
	}
	if strings.Join(names, ",") != "aa,mm,zz" {
		t.Errorf("phase order = %v, want sorted", names)
	}
	var nilC *Collector
	if nilC.PhaseAllocs() != nil {
		t.Error("nil collector PhaseAllocs != nil")
	}
	p := nilC.StartAllocPhase("x")
	p.End()
}
