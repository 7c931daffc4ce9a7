// Package trace defines the memory-access trace format used throughout
// the ReSemble reproduction, together with deterministic synthetic
// workload generators that stand in for the paper's SPEC CPU 2006/2017
// and GAP LLC miss traces (see DESIGN.md, Substitutions).
//
// A trace is an ordered sequence of demand memory accesses as observed
// at the last-level cache input. Each record carries the program counter
// of the instruction that issued the access, the byte address, and the
// number of non-memory instructions executed since the previous record
// (used by the timing model to convert stalls into IPC).
package trace

import (
	"fmt"
	"sort"
	"sync"

	"resemble/internal/mem"
)

// Record is one memory access.
type Record struct {
	// ID is the dynamic instruction number of this access.
	ID uint64
	// PC is the program counter of the load/store instruction.
	PC uint64
	// Addr is the accessed byte address.
	Addr mem.Addr
	// Gap is the number of non-memory instructions retired between the
	// previous record and this one.
	Gap uint32
}

// Line returns the cache-line address of the access.
func (r Record) Line() mem.Line { return mem.LineOf(r.Addr) }

// Trace is an ordered sequence of memory accesses with a name.
type Trace struct {
	Name    string
	Records []Record

	// derived holds data computed from Records (see Derived). It lives
	// and dies with the trace, so a trace the Cache evicts takes its
	// derived data with it.
	derived struct {
		mu sync.Mutex
		m  map[any]*derivedEntry
	}
}

// derivedEntry is one Derived value; once makes concurrent first
// callers wait for a single build.
type derivedEntry struct {
	once sync.Once
	v    any
}

// Derived returns the value stored on the trace under key, calling
// build to compute it on first use. Concurrent callers with the same
// key wait for one build and share its result. The key must be
// comparable and should pin everything the value depends on besides
// the records themselves (including len(Records), so an Append after
// the first call cannot serve stale data). Records must not be changed
// in place once a value has been derived from them.
func (t *Trace) Derived(key any, build func() any) any {
	t.derived.mu.Lock()
	if t.derived.m == nil {
		t.derived.m = make(map[any]*derivedEntry)
	}
	e, ok := t.derived.m[key]
	if !ok {
		e = &derivedEntry{}
		t.derived.m[key] = e
	}
	t.derived.mu.Unlock()
	e.once.Do(func() { e.v = build() })
	return e.v
}

// Len returns the number of records.
func (t *Trace) Len() int { return len(t.Records) }

// Append adds a record, assigning its ID from the running instruction
// count (previous ID + previous Gap + 1).
func (t *Trace) Append(pc, addr uint64, gap uint32) {
	var id uint64
	if n := len(t.Records); n > 0 {
		id = t.Records[n-1].ID + uint64(gap) + 1
	} else {
		id = uint64(gap)
	}
	t.Records = append(t.Records, Record{ID: id, PC: pc, Addr: addr, Gap: gap})
}

// Instructions returns the total number of instructions the trace spans,
// i.e. the ID of the final access plus one.
func (t *Trace) Instructions() uint64 {
	if len(t.Records) == 0 {
		return 0
	}
	return t.Records[len(t.Records)-1].ID + 1
}

// Stats summarizes a trace.
type Stats struct {
	Accesses     int
	Instructions uint64
	UniquePCs    int
	UniqueLines  int
	UniquePages  int
}

// ComputeStats scans the trace once and returns its summary.
func (t *Trace) ComputeStats() Stats {
	pcs := make(map[uint64]struct{})
	lines := make(map[mem.Line]struct{})
	pages := make(map[mem.Page]struct{})
	for _, r := range t.Records {
		pcs[r.PC] = struct{}{}
		lines[r.Line()] = struct{}{}
		pages[mem.PageOf(r.Addr)] = struct{}{}
	}
	return Stats{
		Accesses:     len(t.Records),
		Instructions: t.Instructions(),
		UniquePCs:    len(pcs),
		UniqueLines:  len(lines),
		UniquePages:  len(pages),
	}
}

func (s Stats) String() string {
	return fmt.Sprintf("accesses=%d instructions=%d uniquePCs=%d uniqueLines=%d uniquePages=%d",
		s.Accesses, s.Instructions, s.UniquePCs, s.UniqueLines, s.UniquePages)
}

// Slice returns a shallow sub-trace covering records [lo, hi).
func (t *Trace) Slice(lo, hi int) *Trace {
	if lo < 0 {
		lo = 0
	}
	if hi > len(t.Records) {
		hi = len(t.Records)
	}
	if lo > hi {
		lo = hi
	}
	return &Trace{Name: t.Name, Records: t.Records[lo:hi]}
}

// GroupByPC returns the access sequence regrouped by PC while keeping
// the access order within each PC, as the paper does for Figure 1b.
// PC groups are emitted in ascending PC order.
func (t *Trace) GroupByPC() *Trace {
	byPC := make(map[uint64][]Record)
	for _, r := range t.Records {
		byPC[r.PC] = append(byPC[r.PC], r)
	}
	pcs := make([]uint64, 0, len(byPC))
	for pc := range byPC {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	out := &Trace{Name: t.Name + ".bypc"}
	out.Records = make([]Record, 0, len(t.Records))
	for _, pc := range pcs {
		out.Records = append(out.Records, byPC[pc]...)
	}
	return out
}

// LineSeries returns the cache-line addresses of the trace as float64s,
// the series form consumed by autocorrelation analysis.
func (t *Trace) LineSeries() []float64 {
	s := make([]float64, len(t.Records))
	for i, r := range t.Records {
		s[i] = float64(r.Line())
	}
	return s
}

// DeltaSeries returns the first differences of the cache-line address
// sequence. Address sequences are non-stationary (region bases dominate
// the variance), so periodicity analysis — the paper's Figure 1 — is
// performed on the delta series.
func (t *Trace) DeltaSeries() []float64 {
	if len(t.Records) < 2 {
		return nil
	}
	s := make([]float64, len(t.Records)-1)
	for i := 1; i < len(t.Records); i++ {
		s[i-1] = float64(int64(t.Records[i].Line()) - int64(t.Records[i-1].Line()))
	}
	return s
}

// PCGroups returns the per-PC access subsequences (order preserved
// within each PC), sorted by PC for determinism.
func (t *Trace) PCGroups() []*Trace {
	byPC := make(map[uint64][]Record)
	for _, r := range t.Records {
		byPC[r.PC] = append(byPC[r.PC], r)
	}
	pcs := make([]uint64, 0, len(byPC))
	for pc := range byPC {
		pcs = append(pcs, pc)
	}
	sort.Slice(pcs, func(i, j int) bool { return pcs[i] < pcs[j] })
	out := make([]*Trace, 0, len(pcs))
	for _, pc := range pcs {
		out = append(out, &Trace{Name: t.Name, Records: byPC[pc]})
	}
	return out
}
