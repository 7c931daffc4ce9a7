package telemetry_test

import (
	"testing"

	"resemble/internal/sim"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// TestEnabledAllocAttributionOverheadUnder2PercentOfWindow pins the
// enabled cost of allocation attribution: what one span pays for it
// (two runtime/metrics samples plus the phase-table update) must stay
// under 2% of a telemetry window's simulation time. The window is
// priced in the test, from a baseline run timed on the same machine:
// its time per LLC access times the window size. A baseline run is the
// cheapest simulation there is, so every run's windows cost at least
// as much.
func TestEnabledAllocAttributionOverheadUnder2PercentOfWindow(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	if telemetry.RaceEnabled {
		t.Skip("timing assertion skipped under -race")
	}
	const maxFraction = 0.02
	w, err := trace.Lookup("433.milc")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.GenerateSeeded(20000, w.Seed)
	cfg := sim.DefaultConfig()
	cfg.WarmupFraction = 0 // Result.LLCAccesses then counts the whole run
	r := sim.NewRunner(cfg, sim.WithBaseline())
	res, err := r.Run(tr, nil)
	if err != nil {
		t.Fatal(err)
	}
	run := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := r.Run(tr, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	col, err := telemetry.New(telemetry.Config{AllocAttribution: true})
	if err != nil {
		t.Fatal(err)
	}
	nsPerAccess := float64(run.T.Nanoseconds()) / float64(run.N) / float64(res.LLCAccesses)
	window := nsPerAccess * float64(col.WindowSize())
	attr := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			telemetry.AttributeSpan(col, "overhead.probe")
		}
	})
	ns := float64(attr.T.Nanoseconds()) / float64(attr.N)
	t.Logf("attribution %.0f ns per span; window %.0f ns (%.1f ns per LLC access)", ns, window, nsPerAccess)
	if budget := window * maxFraction; ns >= budget {
		t.Errorf("enabled allocation attribution costs %.0f ns per span, budget is < %.0f ns (2%% of a %d-access window)",
			ns, budget, col.WindowSize())
	}
}
