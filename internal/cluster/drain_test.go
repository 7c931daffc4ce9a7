package cluster

import (
	"net"
	"net/http"
	"testing"
	"time"

	"resemble/internal/service"
)

// TestFrontDrainClosesUnusedConnections: a connection that never sends
// a request must not hold the front door's drain. net/http's Shutdown
// alone would wait until it is 5 s old.
func TestFrontDrainClosesUnusedConnections(t *testing.T) {
	f, _ := testFleet(t, 1, func(c *Config) { c.DrainTimeout = 10 * time.Second })
	c, err := net.Dial("tcp", f.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for deadline := time.Now().Add(5 * time.Second); f.unused.Len() != 1; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the front never accepted the connection")
		}
	}
	began := time.Now()
	if err := f.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if d := time.Since(began); d > 2*time.Second {
		t.Fatalf("drain took %s with an unused connection open", d)
	}
}

// TestFrontDrainBackendsStopsEveryBackend: with DrainBackends, the
// front door's drain returns only once every real backend reads
// Stopped. The front takes a refused /healthz as "gone", so a backend
// must publish Stopped before its HTTP front starts closing.
func TestFrontDrainBackendsStopsEveryBackend(t *testing.T) {
	backends := make([]*service.Service, 3)
	addrs := make([]string, len(backends))
	for i := range backends {
		backends[i] = startTracedBackend(t, 1)
		addrs[i] = backends[i].Addr()
	}
	f, err := New(Config{
		Backends:      addrs,
		DrainTimeout:  10 * time.Second,
		DrainBackends: true,
		Probe:         ProbeConfig{Interval: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	req := service.Request{Workload: "433.milc", Controller: "none", Accesses: 2000}
	if status, _, out := postRun(t, f.Addr(), req); status != http.StatusOK {
		t.Fatalf("run: status %d (%s)", status, out.Error)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	for i, s := range backends {
		if st := s.State(); st != service.Stopped {
			t.Errorf("backend %d (%s) state = %v after the fleet drain, want stopped", i, addrs[i], st)
		}
	}
}
