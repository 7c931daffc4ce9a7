package cluster

import (
	"bytes"
	"encoding/json"
	"net/http"
	"runtime"
	"testing"
	"time"

	"resemble/internal/resilience"
	"resemble/internal/service"
)

// TestFleetMatchesSingleInstanceUnderChaos is the fleet determinism
// contract under chaos, on real backends: a request won by a hedge
// against a wedged owner and requests that fail over past an aborted
// owner still leave the front's merged windows byte-identical to one
// instance replaying the admission log serially. No accepted request
// is lost, nothing stays parked in the merge buffer, and once the
// fleet has drained every goroutine the test started is gone.
func TestFleetMatchesSingleInstanceUnderChaos(t *testing.T) {
	before := runtime.NumGoroutine()
	// Arm breakers are per-instance adaptive state: a fleet that shards
	// the history differently could legitimately pick other arms than a
	// single instance. An unreachable threshold, on the fleet and on the
	// reference, keeps the arms a function of the request alone.
	quiet := resilience.BreakerConfig{FailureThreshold: 1 << 30}
	wedge := &service.Chaos{SlowHandler: 10 * time.Second}
	backends := make([]*service.Service, 3)
	addrs := make([]string, len(backends))
	for i := range backends {
		backends[i] = startBackend(t, func(c *service.Config) {
			c.Breaker = quiet
			if i == 0 {
				c.Chaos = wedge
			}
		})
		addrs[i] = backends[i].Addr()
	}
	tel := newKeepCollector(t)
	f, err := New(Config{
		Backends:       addrs,
		HedgeAfter:     150 * time.Millisecond,
		RequestTimeout: 30 * time.Second,
		DrainTimeout:   10 * time.Second,
		DrainBackends:  true,
		Probe:          ProbeConfig{Interval: 20 * time.Millisecond},
		Telemetry:      tel,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })

	var sent []service.Request
	send := func(req service.Request) {
		t.Helper()
		if status, _, out := postRun(t, f.Addr(), req); status != http.StatusOK {
			t.Fatalf("%+v: status %d (%s)", req, status, out.Error)
		}
		sent = append(sent, req)
	}
	ownedBy := func(req service.Request, addr string) service.Request {
		for ; ; req.Seed++ {
			if owner, _ := f.Ring().Lookup(RouteKey(req)); owner == addr {
				return req
			}
		}
	}

	send(ownedBy(service.Request{Workload: "433.lbm", Controller: "resemble-t", Accesses: 2000}, addrs[0]))
	wedge.Stop()
	if st := f.Stats(); st.HedgeWins != 1 {
		t.Fatalf("stats = %+v, want the hedge to win against the wedged owner", st)
	}
	backends[1].Abort()
	send(ownedBy(service.Request{Workload: "433.milc", Controller: "resemble-t", Accesses: 2000}, addrs[1]))
	if st := f.Stats(); st.Failovers == 0 {
		t.Fatalf("stats = %+v, want a failover past the aborted owner", st)
	}
	for _, req := range []service.Request{
		{Workload: "433.milc", Controller: "resemble-t", Accesses: 2000},
		{Workload: "471.omnetpp", Controller: "bo", Accesses: 2000},
		{Workload: "433.lbm", Controller: "sbp-e", Accesses: 2000},
		{Workload: "433.milc", Controller: "none", Accesses: 2000, Seed: 1},
		{Workload: "471.omnetpp", Controller: "resemble-t", Accesses: 2000, Seed: 2},
	} {
		send(req)
	}

	if err := f.Close(); err != nil {
		t.Fatalf("fleet drain: %v", err)
	}
	for _, b := range backends {
		if err := b.Close(); err != nil { // reaps the aborted engine too
			t.Fatalf("backend %s close: %v", b.Addr(), err)
		}
	}
	if st := f.Stats(); st.Admitted != st.Completed || st.Failed != 0 || st.MergePending != 0 {
		t.Fatalf("stats = %+v, want every admitted request completed and merged", st)
	}

	refTel := newKeepCollector(t)
	ref := startBackend(t, func(c *service.Config) {
		c.Workers = 1
		c.Breaker = quiet
		c.Telemetry = refTel
	})
	for _, req := range sent {
		body, _ := json.Marshal(req)
		resp, err := http.Post("http://"+ref.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reference %+v: status %d", req, resp.StatusCode)
		}
	}
	if err := ref.Close(); err != nil {
		t.Fatal(err)
	}
	got, _ := json.Marshal(tel.Windows())
	want, _ := json.Marshal(refTel.Windows())
	if len(tel.Windows()) == 0 || !bytes.Equal(got, want) {
		t.Fatalf("fleet windows diverge from a single instance: %d vs %d windows",
			len(tel.Windows()), len(refTel.Windows()))
	}

	// Client keep-alives and runtime bookkeeping settle asynchronously.
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > before+2; time.Sleep(50 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("goroutines %d > baseline %d after the fleet drained\n%s",
				runtime.NumGoroutine(), before, buf[:runtime.Stack(buf, true)])
		}
	}
}
