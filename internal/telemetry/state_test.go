package telemetry

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// savedState returns the current-format snapshot of a collector that
// has counters, gauges, a decimated histogram and retained windows.
func savedState(tb testing.TB) []byte {
	tb.Helper()
	c, err := New(Config{KeepWindows: true, TraceSample: 4})
	if err != nil {
		tb.Fatal(err)
	}
	c.BeginRun("w", "s")
	for _, name := range []string{"b.count", "a.count", "c.count"} {
		c.reg.Counter(name).Add(uint64(len(name)))
	}
	c.reg.Gauge("g").Set(2.5)
	h := c.reg.Histogram("lat")
	for i := 0; i < 3*histCap; i++ {
		h.Observe(float64(i % 97))
	}
	for i := 0; i < 10; i++ {
		c.Trace(Event{Seq: uint64(i)})
	}
	c.EmitWindow(SimWindow{Accesses: 1000, Instructions: 4000, Cycles: 2000, Misses: 10}, nil)
	c.EmitWindow(SimWindow{Accesses: 1000, Instructions: 3000, Cycles: 2500, Misses: 20}, nil)
	var buf bytes.Buffer
	if err := c.SaveState(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// withHistogram returns the snapshot cur with one more histogram.
func withHistogram(tb testing.TB, cur []byte, name string, hs histogramState) []byte {
	tb.Helper()
	var st collectorState
	if err := gob.NewDecoder(bytes.NewReader(cur)).Decode(&st); err != nil {
		tb.Fatal(err)
	}
	st.HistogramList = append(st.HistogramList, named[histogramState]{name, hs})
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCollectorLoadState: the collector's checkpoint section comes
// back from the artifact store, so LoadState must never panic, a
// restored collector must keep working, and an accepted state must
// re-save to bytes that reload to themselves. Restored histograms keep
// Observe's invariants: the reservoir under histCap and, once
// observed, a stride of at least one.
func FuzzCollectorLoadState(f *testing.F) {
	cur := savedState(f)
	f.Add(cur)
	old, err := ParentFormatState(cur)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(old)
	f.Add(withHistogram(f, cur, "zero.stride", histogramState{Count: 4, Sum: 4, Min: 1, Max: 1, Samples: []float64{1, 1, 1, 1}}))
	over := make([]float64, 3*histCap+1)
	for i := range over {
		over[i] = float64(i)
	}
	f.Add(withHistogram(f, cur, "over.cap", histogramState{Count: uint64(len(over)), Sum: 1, Max: float64(len(over)), Samples: over, Stride: 1}))
	f.Add([]byte("not a snapshot"))

	load := func(t *testing.T, data []byte) (*Collector, error) {
		c, err := New(Config{KeepWindows: true, TraceSample: 4})
		if err != nil {
			t.Fatal(err)
		}
		return c, c.LoadState(bytes.NewReader(data))
	}
	save := func(t *testing.T, c *Collector) []byte {
		var buf bytes.Buffer
		if err := c.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := load(t, data)
		if err != nil {
			return
		}
		for name, h := range c.reg.histograms {
			if len(h.samples) >= histCap || (h.count > 0 && h.stride == 0) {
				t.Fatalf("histogram %q restored with %d samples, stride %d", name, len(h.samples), h.stride)
			}
		}
		b1 := save(t, c)
		c2, err := load(t, b1)
		if err != nil {
			t.Fatalf("re-saved state rejected: %v", err)
		}
		if b2 := save(t, c2); !bytes.Equal(b1, b2) {
			t.Fatal("re-saved state does not reload to itself")
		}
		for _, h := range c2.reg.histograms {
			h.Observe(1)
		}
		c2.reg.Snapshot()
		c2.Trace(Event{})
		c2.EmitWindow(SimWindow{Accesses: 1}, nil)
	})
}
