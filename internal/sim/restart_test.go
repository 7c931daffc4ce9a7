package sim_test

import (
	"bytes"
	"encoding/json"
	"io"
	"reflect"
	"testing"

	"resemble/internal/checkpoint"
	"resemble/internal/core"
	"resemble/internal/ensemble/sbp"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/bo"
	"resemble/internal/prefetch/domino"
	"resemble/internal/prefetch/isb"
	"resemble/internal/prefetch/spp"
	"resemble/internal/sim"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// TestControllerRestartMatchesNew: a resemble-t or sbp-e controller
// that has run a trace with telemetry attached, whose arms are then
// reset and which is restarted under a new seed, equals one newly
// built with that seed. The restarted resemble-t saves to the same
// bytes, and on a further run both controllers give the same Result
// and windows as the new ones (and resemble-t the same end state).
func TestControllerRestartMatchesNew(t *testing.T) {
	trA := resumeTrace(t, 6000)
	w, err := trace.Lookup("433.milc")
	if err != nil {
		t.Fatal(err)
	}
	trB := w.GenerateSeeded(4000, w.Seed)
	cfg := core.DefaultConfig().WithMasking()
	withSeed := func(seed int64) core.Config {
		c := cfg
		c.Seed = seed
		return c
	}
	arms := func() []prefetch.Prefetcher {
		return []prefetch.Prefetcher{
			bo.New(bo.Config{}), spp.New(spp.Config{}),
			isb.New(isb.Config{}), domino.New(domino.Config{}),
		}
	}
	run := func(tr *trace.Trace, src sim.Source) (sim.Result, string) {
		tel, err := telemetry.New(telemetry.Config{KeepWindows: true})
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.NewRunner(sim.DefaultConfig(), sim.WithTelemetry(tel)).Run(tr, src)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(tel.Windows())
		if err != nil {
			t.Fatal(err)
		}
		return res, string(b)
	}
	// gob numbers each type the first time the process encodes it; a
	// first save fixes the numbering before any bytes are compared.
	if err := core.NewTabularController(cfg, arms()).SaveState(io.Discard); err != nil {
		t.Fatal(err)
	}
	save := func(src sim.Source) []byte {
		st, ok := src.(checkpoint.Stater)
		if !ok {
			return nil
		}
		var buf bytes.Buffer
		if err := st.SaveState(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	for _, tc := range []struct {
		name    string
		build   func(seed int64, in []prefetch.Prefetcher) sim.Source
		restart func(src sim.Source, seed int64)
	}{
		{"resemble-t",
			func(seed int64, in []prefetch.Prefetcher) sim.Source {
				return core.NewTabularController(withSeed(seed), in)
			},
			func(src sim.Source, seed int64) { src.(*core.TabularController).Restart(seed) }},
		{"sbp-e",
			func(_ int64, in []prefetch.Prefetcher) sim.Source { return sbp.New(sbp.Config{}, in) },
			func(src sim.Source, _ int64) { src.(*sbp.Controller).Restart() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			in := arms()
			used := tc.build(1, in)
			run(trA, used)
			for _, p := range in {
				p.Reset()
			}
			tc.restart(used, 9)
			fresh := tc.build(9, arms())
			if !bytes.Equal(save(used), save(fresh)) {
				t.Fatal("restarted controller saves differently from a new one")
			}
			gotRes, gotWin := run(trB, used)
			wantRes, wantWin := run(trB, fresh)
			if !reflect.DeepEqual(gotRes, wantRes) {
				t.Errorf("restarted result differs from new:\n got %+v\nwant %+v", gotRes, wantRes)
			}
			if gotWin != wantWin {
				t.Error("restarted windows differ from new")
			}
			if !bytes.Equal(save(used), save(fresh)) {
				t.Error("restarted controller ends in a different state from a new one")
			}
		})
	}
}
