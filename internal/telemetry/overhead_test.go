package telemetry

import (
	"testing"
	"time"
)

// benchHandles lives at package scope so the compiler cannot prove the
// handles nil and fold the disabled paths away — the benchmark must
// measure the nil check instrumented code actually pays.
var benchHandles = struct {
	c    *Counter
	col  *Collector
	rec  *FlightRecorder
	hist *History
}{}

// BenchmarkTelemetryOverhead measures the hot-path cost of the
// instrumentation layer in both the disabled (nil handle) and enabled
// states. The disabled numbers are the price every simulation pays when
// telemetry is off; see DESIGN.md for recorded results.
func BenchmarkTelemetryOverhead(b *testing.B) {
	b.Run("counter-disabled", func(b *testing.B) {
		c := benchHandles.c
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("counter-enabled", func(b *testing.B) {
		c := NewRegistry().Counter("bench")
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c.Inc()
		}
	})
	b.Run("trace-disabled", func(b *testing.B) {
		col := benchHandles.col
		e := Event{Kind: KindHit}
		for i := 0; i < b.N; i++ {
			col.Trace(e)
		}
	})
	b.Run("trace-sampled-64", func(b *testing.B) {
		tr := NewTracer(64, 4096)
		e := Event{Kind: KindHit}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			tr.Trace(e)
		}
	})
	b.Run("histogram-observe", func(b *testing.B) {
		h := &Histogram{}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			h.Observe(float64(i & 1023))
		}
	})
	b.Run("span-disabled", func(b *testing.B) {
		col := benchHandles.col
		for i := 0; i < b.N; i++ {
			col.RunSpanChild("x").End()
		}
	})
	b.Run("explain-disabled", func(b *testing.B) {
		col := benchHandles.col
		for i := 0; i < b.N; i++ {
			if col.ExplainTick() {
				b.Fatal("nil collector ticked")
			}
		}
	})
	b.Run("flightrec-disabled", func(b *testing.B) {
		rec := benchHandles.rec
		for i := 0; i < b.N; i++ {
			rec.Note("x", "")
		}
	})
	b.Run("history-disabled", func(b *testing.B) {
		h := benchHandles.hist
		for i := 0; i < b.N; i++ {
			if h.Len() != 0 {
				b.Fatal("nil history non-empty")
			}
		}
	})
	b.Run("alloc-attribution-enabled", func(b *testing.B) {
		col, err := New(Config{AllocAttribution: true})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			AttributeSpan(col, "x")
		}
	})
}

// TestDisabledHotPathUnder5ns enforces the overhead budget from the
// telemetry design: a disabled (nil-handle) counter increment plus a
// disabled trace call must cost less than 5 ns combined, so leaving
// instrumentation compiled into the simulator hot loop is free in
// practice. The span and explain paths added later carry the same
// budget, checked separately so a regression names its culprit.
func TestDisabledHotPathUnder5ns(t *testing.T) {
	if testing.Short() {
		t.Skip("timing assertion skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("timing assertion skipped under -race: instrumentation inflates the nil-check path")
	}
	measure := func(f func(b *testing.B)) float64 {
		res := testing.Benchmark(f)
		return float64(res.T.Nanoseconds()) / float64(res.N)
	}
	if ns := measure(func(b *testing.B) {
		c := benchHandles.c
		col := benchHandles.col
		e := Event{Kind: KindHit}
		for i := 0; i < b.N; i++ {
			c.Inc()
			col.Trace(e)
		}
	}); ns >= 5 {
		t.Errorf("disabled counter+trace path costs %.2f ns/op, budget is < 5 ns", ns)
	}
	if ns := measure(func(b *testing.B) {
		col := benchHandles.col
		for i := 0; i < b.N; i++ {
			col.RunSpanChild("x").End()
		}
	}); ns >= 5 {
		t.Errorf("disabled span path costs %.2f ns/op, budget is < 5 ns", ns)
	}
	if ns := measure(func(b *testing.B) {
		col := benchHandles.col
		for i := 0; i < b.N; i++ {
			if col.ExplainTick() {
				b.Fatal("nil collector ticked")
			}
		}
	}); ns >= 5 {
		t.Errorf("disabled explain path costs %.2f ns/op, budget is < 5 ns", ns)
	}
	if ns := measure(func(b *testing.B) {
		rec := benchHandles.rec
		for i := 0; i < b.N; i++ {
			rec.Note("x", "")
			rec.Trigger("y", "")
		}
	}); ns >= 5 {
		t.Errorf("disabled flight-recorder path costs %.2f ns/op, budget is < 5 ns", ns)
	}
	if ns := measure(func(b *testing.B) {
		h := benchHandles.hist
		for i := 0; i < b.N; i++ {
			h.Record(time.Time{}, RegistrySnapshot{})
			if h.Len() != 0 {
				b.Fatal("nil history non-empty")
			}
		}
	}); ns >= 5 {
		t.Errorf("disabled metrics-history path costs %.2f ns/op, budget is < 5 ns", ns)
	}
}
