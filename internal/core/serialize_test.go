package core

import (
	"bytes"
	"testing"

	"resemble/internal/prefetch"
)

func TestControllerModelRoundTrip(t *testing.T) {
	seq := makeLoop(32)
	pfs := []prefetch.Prefetcher{oracle("o", true, seq), garbage("g", false)}
	a := NewController(testConfig(), pfs)
	driveLoop(t, a, seq, 2000)

	var buf bytes.Buffer
	if err := a.SaveModel(&buf); err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	b := NewController(testConfig(), []prefetch.Prefetcher{oracle("o", true, seq), garbage("g", false)})
	if err := b.LoadModel(&buf); err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	// Both controllers must now agree on Q-values for arbitrary states.
	for _, x := range [][]float64{{0.1, 0.5}, {0.9, 0.2}, {0, 0}} {
		qa := append([]float64(nil), a.target.Forward(x)...)
		qb := b.target.Forward(x)
		for i := range qa {
			if qa[i] != qb[i] {
				t.Fatalf("Q mismatch at state %v: %v vs %v", x, qa, qb)
			}
		}
	}
}

func TestControllerLoadRejectsWrongArch(t *testing.T) {
	seq := makeLoop(16)
	a := NewController(testConfig(), []prefetch.Prefetcher{oracle("o", true, seq)})
	var buf bytes.Buffer
	if err := a.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	// A controller with a different prefetcher count has a different
	// input width.
	b := NewController(testConfig(), []prefetch.Prefetcher{
		oracle("o", true, seq), garbage("g1", false), garbage("g2", false),
	})
	if err := b.LoadModel(&buf); err == nil {
		t.Error("architecture mismatch accepted")
	}
}

func TestControllerLoadRejectsGarbage(t *testing.T) {
	seq := makeLoop(16)
	c := NewController(testConfig(), []prefetch.Prefetcher{oracle("o", true, seq)})
	if err := c.LoadModel(bytes.NewReader([]byte("not a model at all....."))); err == nil {
		t.Error("garbage stream accepted")
	}
}

func TestTabularModelRoundTrip(t *testing.T) {
	seq := makeLoop(32)
	a := NewTabularController(testConfig(), []prefetch.Prefetcher{
		oracle("o", true, seq), garbage("g", false),
	})
	driveLoop(t, a, seq, 2000)
	if a.UniqueStates() == 0 {
		t.Fatal("precondition: no states learned")
	}

	var buf bytes.Buffer
	if err := a.SaveModel(&buf); err != nil {
		t.Fatalf("SaveModel: %v", err)
	}
	b := NewTabularController(testConfig(), []prefetch.Prefetcher{
		oracle("o", true, seq), garbage("g", false),
	})
	if err := b.LoadModel(&buf); err != nil {
		t.Fatalf("LoadModel: %v", err)
	}
	if b.UniqueStates() != a.UniqueStates() {
		t.Fatalf("states %d != %d after round trip", b.UniqueStates(), a.UniqueStates())
	}
	// Every (key, row) must survive.
	for tokA, key := range a.keys {
		tokB, ok := b.tokens.Get(key)
		if !ok {
			t.Fatalf("key %#x missing after round trip", key)
		}
		for i, q := range a.row(tokA) {
			if q != b.row(int(tokB))[i] {
				t.Fatalf("Q row mismatch for key %#x", key)
			}
		}
	}
}

func TestTabularLoadRejectsWrongActions(t *testing.T) {
	seq := makeLoop(16)
	a := NewTabularController(testConfig(), []prefetch.Prefetcher{oracle("o", true, seq)})
	driveLoop(t, a, seq, 300)
	var buf bytes.Buffer
	if err := a.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	b := NewTabularController(testConfig(), []prefetch.Prefetcher{
		oracle("o", true, seq), garbage("g", false),
	})
	if err := b.LoadModel(&buf); err == nil {
		t.Error("action-count mismatch accepted")
	}
}

func TestTabularLoadRejectsGarbage(t *testing.T) {
	seq := makeLoop(16)
	c := NewTabularController(testConfig(), []prefetch.Prefetcher{oracle("o", true, seq)})
	if err := c.LoadModel(bytes.NewReader([]byte("junkjunkjunkjunkjunk"))); err == nil {
		t.Error("garbage stream accepted")
	}
}

// Loaded models must keep working: drive a fresh controller with a
// loaded model and verify it performs from the start (low epsilon it is
// not, but the Q-values steer exploitation immediately).
func TestLoadedModelDrivesDecisions(t *testing.T) {
	seq := makeLoop(64)
	pfs := func() []prefetch.Prefetcher {
		return []prefetch.Prefetcher{garbage("g", true), oracle("o", false, seq)}
	}
	a := NewController(testConfig(), pfs())
	driveLoop(t, a, seq, 6000)

	var buf bytes.Buffer
	if err := a.SaveModel(&buf); err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.EpsStart = 0.0 // pure exploitation: decisions come from the model
	cfg.EpsEnd = 0.0
	cfg.EpsDecay = 1
	b := NewController(cfg, pfs())
	if err := b.LoadModel(&buf); err != nil {
		t.Fatal(err)
	}
	driveLoop(t, b, seq, 1500)
	if got := tailMeanReward(b.RewardSeries(), 0.5); got < 0.5 {
		t.Errorf("loaded model tail reward = %.3f, want > 0.5", got)
	}
}
