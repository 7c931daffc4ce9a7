package sim_test

import (
	"bytes"
	"crypto/sha256"
	"io"
	"testing"

	"resemble/internal/core"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/bo"
	"resemble/internal/prefetch/domino"
	"resemble/internal/prefetch/isb"
	"resemble/internal/prefetch/spp"
	"resemble/internal/sim"
	"resemble/internal/telemetry"
)

// TestCheckpointBytesDeterministicAcrossRuns runs every checkpointable
// controller (both ensembles and each solo arm) twice on the same trace
// and requires byte-identical checkpoint blobs at every sink cursor,
// and for the ensembles byte-identical SaveModel output. The artifact
// store names blobs by SHA-256, so any serialization that depends on
// map iteration order would give the same run a new checkpoint ID each
// time. The telemetry case attaches a collector, whose section carries
// the registry's instrument values.
func TestCheckpointBytesDeterministicAcrossRuns(t *testing.T) {
	tr := resumeTrace(t, 600)
	arms := func() []prefetch.Prefetcher {
		return []prefetch.Prefetcher{
			bo.New(bo.Config{}), spp.New(spp.Config{}),
			isb.New(isb.Config{}), domino.New(domino.Config{}),
		}
	}
	for _, tc := range []struct {
		name string
		mk   func() sim.Source
		tel  bool
	}{
		{"resemble", func() sim.Source { return core.NewController(core.DefaultConfig(), arms()) }, false},
		{"resemble-t", func() sim.Source { return core.NewTabularController(core.DefaultConfig(), arms()) }, false},
		{"resemble-t+telemetry", func() sim.Source { return core.NewTabularController(core.DefaultConfig(), arms()) }, true},
		{"bo", func() sim.Source { return sim.FromPrefetcher(bo.New(bo.Config{}), 2) }, false},
		{"spp", func() sim.Source { return sim.FromPrefetcher(spp.New(spp.Config{}), 2) }, false},
		{"isb", func() sim.Source { return sim.FromPrefetcher(isb.New(isb.Config{}), 2) }, false},
		{"domino", func() sim.Source { return sim.FromPrefetcher(domino.New(domino.Config{}), 2) }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var hashes [2][][32]byte
			var models [2][]byte
			for run := range hashes {
				cap := &capture{}
				src := tc.mk()
				opts := []sim.Option{sim.WithCheckpointSink(200, cap.sink)}
				if tc.tel {
					col, err := telemetry.New(telemetry.Config{WindowSize: 100, KeepWindows: true, TraceSample: 16, ExplainSample: 8})
					if err != nil {
						t.Fatal(err)
					}
					opts = append(opts, sim.WithTelemetry(col))
				}
				if _, err := sim.NewRunner(sim.DefaultConfig(), opts...).Run(tr, src); err != nil {
					t.Fatal(err)
				}
				if len(cap.blobs) == 0 {
					t.Fatal("no checkpoints emitted")
				}
				for _, b := range cap.blobs {
					hashes[run] = append(hashes[run], sha256.Sum256(b))
				}
				models[run] = saveModel(t, src)
			}
			if len(hashes[0]) != len(hashes[1]) {
				t.Fatalf("runs emitted %d and %d checkpoints", len(hashes[0]), len(hashes[1]))
			}
			for i := range hashes[0] {
				if hashes[0][i] != hashes[1][i] {
					t.Errorf("checkpoint %d: blob hashes differ between identical runs", i)
				}
			}
			if !bytes.Equal(models[0], models[1]) {
				t.Error("SaveModel bytes differ between identical runs")
			}
		})
	}
}

// saveModel returns src's SaveModel bytes, or nil for sources without
// a model.
func saveModel(t *testing.T, src sim.Source) []byte {
	t.Helper()
	m, ok := src.(interface {
		SaveModel(w io.Writer) error
	})
	if !ok {
		return nil
	}
	var buf bytes.Buffer
	if err := m.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}
