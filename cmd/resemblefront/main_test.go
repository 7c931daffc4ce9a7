package main

import (
	"testing"
	"time"
)

func TestParseFlagsBackends(t *testing.T) {
	o, err := parseFlags([]string{
		"-backends", "10.0.0.1:8321, 10.0.0.2:8321,,10.0.0.3:8321",
	})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"10.0.0.1:8321", "10.0.0.2:8321", "10.0.0.3:8321"}
	if len(o.backends) != len(want) {
		t.Fatalf("backends = %v, want %v", o.backends, want)
	}
	for i := range want {
		if o.backends[i] != want[i] {
			t.Fatalf("backends = %v, want %v (whitespace/empty segments not normalized)", o.backends, want)
		}
	}
}

func TestParseFlagsTuning(t *testing.T) {
	o, err := parseFlags([]string{
		"-backends", "a:1",
		"-hedge-after", "35ms",
		"-retry-budget", "2.5",
		"-max-attempts", "2",
		"-drain-backends",
	})
	if err != nil {
		t.Fatal(err)
	}
	if o.hedgeAfter != 35*time.Millisecond {
		t.Fatalf("hedgeAfter = %v, want 35ms", o.hedgeAfter)
	}
	if o.retryBudget != 2.5 {
		t.Fatalf("retryBudget = %v, want 2.5", o.retryBudget)
	}
	if o.maxAttempts != 2 || !o.drainBackends {
		t.Fatalf("maxAttempts=%d drainBackends=%v, want 2/true", o.maxAttempts, o.drainBackends)
	}
}

func TestParseFlagsRejects(t *testing.T) {
	cases := [][]string{
		{},                    // no backends, not soak
		{"-backends", " , ,"}, // only empty segments
		{"-backends", "a:1", "-retry-budget", "0"},
		{"-backends", "a:1", "-retry-budget", "-1"},
		{"-backends", "a:1", "-hedge-after", "-5ms"},
		{"-backends", "a:1", "-hedge-after", "nonsense"},
	}
	for _, args := range cases {
		if _, err := parseFlags(args); err == nil {
			t.Fatalf("parseFlags(%v) succeeded, want error", args)
		}
	}
}

// TestParseFlagsSoakNeedsNoBackends: the incident demo boots its own
// fleet, so -soak needs only an artifacts directory; the soak length
// and trace-length flags are gone.
func TestParseFlagsSoakNeedsNoBackends(t *testing.T) {
	o, err := parseFlags([]string{"-soak", "-soak.artifacts", "/tmp/incidents"})
	if err != nil {
		t.Fatal(err)
	}
	if !o.soak || o.soakArtifacts != "/tmp/incidents" {
		t.Fatalf("soak=%v soakArtifacts=%q, want true and /tmp/incidents", o.soak, o.soakArtifacts)
	}
	for _, args := range [][]string{
		{"-soak"}, // nowhere to write the artifacts
		{"-soak", "-soak.artifacts", "/tmp/incidents", "-soak.duration", "3s"},
		{"-soak", "-soak.artifacts", "/tmp/incidents", "-soak.accesses", "2000"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("parseFlags(%v) succeeded, want error", args)
		}
	}
}
