package telemetry_test

import (
	"bytes"
	"errors"
	"io"
	"reflect"
	"testing"

	"resemble/internal/checkpoint"
	"resemble/internal/core"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/bo"
	"resemble/internal/prefetch/domino"
	"resemble/internal/prefetch/isb"
	"resemble/internal/prefetch/spp"
	"resemble/internal/sim"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// TestResumeFromParentFormatTelemetry: a run checkpoint whose
// telemetry section is in the parent format (instrument maps and the
// tracer ring) still loads, and the resumed run ends with the same
// windows, registry and result as an uninterrupted run.
func TestResumeFromParentFormatTelemetry(t *testing.T) {
	w, err := trace.Lookup("471.omnetpp")
	if err != nil {
		t.Fatal(err)
	}
	tr := w.GenerateSeeded(6000, w.Seed)
	mk := func() sim.Source {
		return core.NewTabularController(core.DefaultConfig(), []prefetch.Prefetcher{
			bo.New(bo.Config{}), spp.New(spp.Config{}),
			isb.New(isb.Config{}), domino.New(domino.Config{}),
		})
	}
	collector := func() *telemetry.Collector {
		tel, err := telemetry.New(telemetry.Config{WindowSize: 500, KeepWindows: true, TraceSample: 16})
		if err != nil {
			t.Fatal(err)
		}
		return tel
	}
	wantTel := collector()
	want, err := sim.NewRunner(sim.DefaultConfig(), sim.WithTelemetry(wantTel)).Run(tr, mk())
	if err != nil {
		t.Fatal(err)
	}

	var blob []byte
	_, err = sim.NewRunner(sim.DefaultConfig(),
		sim.WithTelemetry(collector()),
		sim.WithCheckpointSink(0, func(b []byte, _ int) error { blob = append(blob[:0], b...); return nil }),
		sim.WithStopAfter(3500),
	).Run(tr, mk())
	if !errors.Is(err, sim.ErrInterrupted) {
		t.Fatalf("want ErrInterrupted, got %v", err)
	}
	old := parentFormatBlob(t, blob)

	gotTel := collector()
	got, err := sim.NewRunner(sim.DefaultConfig(), sim.WithTelemetry(gotTel), sim.WithResumeBlob(old)).Run(tr, mk())
	if err != nil {
		t.Fatalf("resume from a parent-format checkpoint: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("resumed result differs:\nwant %+v\ngot  %+v", want, got)
	}
	if !reflect.DeepEqual(wantTel.Windows(), gotTel.Windows()) {
		t.Errorf("resumed windows differ: %d vs %d windows", len(wantTel.Windows()), len(gotTel.Windows()))
	}
	if a, b := wantTel.Registry().Snapshot(), gotTel.Registry().Snapshot(); !reflect.DeepEqual(a.Counters, b.Counters) {
		t.Errorf("resumed counters differ:\nwant %v\ngot  %v", a.Counters, b.Counters)
	}
}

// parentFormatBlob rewrites a run checkpoint's telemetry section in the
// parent format, leaving every other section as it is.
func parentFormatBlob(t *testing.T, blob []byte) []byte {
	t.Helper()
	f, err := checkpoint.Read(bytes.NewReader(blob))
	if err != nil {
		t.Fatal(err)
	}
	b := checkpoint.NewBuilder()
	for _, name := range f.Sections() {
		r, err := f.Section(name)
		if err != nil {
			t.Fatal(err)
		}
		data, err := io.ReadAll(r)
		if err != nil {
			t.Fatal(err)
		}
		if name == "telemetry" {
			if data, err = telemetry.ParentFormatState(data); err != nil {
				t.Fatal(err)
			}
		}
		if err := b.Add(name, func(w io.Writer) error { _, err := w.Write(data); return err }); err != nil {
			t.Fatal(err)
		}
	}
	var out bytes.Buffer
	if _, err := b.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}
