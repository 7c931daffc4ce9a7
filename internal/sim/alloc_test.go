package sim

import (
	"testing"

	"resemble/internal/core"
	"resemble/internal/ensemble/sbp"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/bo"
	"resemble/internal/prefetch/domino"
	"resemble/internal/prefetch/isb"
	"resemble/internal/prefetch/spp"
	"resemble/internal/trace"
)

// TestStepSteadyStateZeroAlloc pins the hot-path allocation contract
// (doc.go, "Hot-path allocation discipline"): once the queues and cache
// structures are warm, stepping the simulator allocates nothing — with
// or without a prefetch source. The head-indexed MSHR/ROB/pending
// queues and the by-value cache eviction path are what make this hold;
// a regression here shows up as a nonzero allocs/op long before it
// shows up in wall-clock benchmarks. Each step reads its record's
// private-hierarchy outcome from the trace's Filter, as a run does.
//
// The ensemble cases run the real four arms under the tabular and
// SBP(E) controllers over a repeating pointer-chasing trace, so their
// tables (arm indexes, Q-table, reward tracker, pending ring, sandbox
// histories) have reached their working size after the warm-up.
func TestStepSteadyStateZeroAlloc(t *testing.T) {
	arms := func() []prefetch.Prefetcher {
		return []prefetch.Prefetcher{
			bo.New(bo.Config{}), spp.New(spp.Config{}),
			isb.New(isb.Config{}), domino.New(domino.Config{}),
		}
	}
	for _, tc := range []struct {
		name string
		tr   *trace.Trace
		src  Source
		warm int
	}{
		{"baseline", streamTrace(30000), nil, 20000},
		{"nextline", streamTrace(30000), &nextLineSource{degree: 2}, 20000},
		{"resemble-t", repeatingTrace(2000, 40), core.NewTabularController(core.DefaultConfig(), arms()), 70000},
		{"sbp-e", repeatingTrace(2000, 40), sbp.New(sbp.Config{}, arms()), 70000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := tc.tr
			s := New(DefaultConfig())
			priv := FilterFor(tr, s.cfg)
			for i := 0; i < tc.warm; i++ {
				s.step(tr.Records[i], priv.Level(i), tc.src)
			}
			i := tc.warm
			allocs := testing.AllocsPerRun(1000, func() {
				s.step(tr.Records[i], priv.Level(i), tc.src)
				i++
			})
			if allocs != 0 {
				t.Errorf("steady-state step allocates %.2f/op, want 0", allocs)
			}
		})
	}
}

// TestBaselineRunAllocBudget bounds what a whole run allocates: the
// Simulator, its caches and queues, and the Result around a step loop
// that allocates nothing. A baseline run over a 20k-access 433.milc trace makes about
// 12 allocations once the trace's Filter exists; 32 leaves room for
// drift, while a per-record allocation would cost thousands.
func TestBaselineRunAllocBudget(t *testing.T) {
	const budget = 32
	tr := lookupTrace(t, "433.milc", 20000)
	r := NewRunner(DefaultConfig(), WithBaseline())
	var err error
	allocs := testing.AllocsPerRun(5, func() {
		if _, rerr := r.Run(tr, nil); rerr != nil {
			err = rerr
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs > budget {
		t.Errorf("baseline run allocates %.0f per run, budget %d", allocs, budget)
	}
}

// repeatingTrace tiles an n-access pointer-chasing trace reps times,
// keeping instruction IDs increasing across repetitions.
func repeatingTrace(n, reps int) *trace.Trace {
	w, err := trace.Lookup("471.omnetpp")
	if err != nil {
		panic(err)
	}
	base := w.GenerateSeeded(n, w.Seed).Records
	span := base[len(base)-1].ID + 1
	out := &trace.Trace{Name: "repeat", Records: make([]trace.Record, 0, n*reps)}
	for r := 0; r < reps; r++ {
		for _, rec := range base {
			rec.ID += uint64(r) * span
			out.Records = append(out.Records, rec)
		}
	}
	return out
}
