package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"resemble/internal/resilience"
	"resemble/internal/service"
	"resemble/internal/telemetry"
)

// fakeBackend is an in-process resembled stand-in with switchable
// failure modes.
type fakeBackend struct {
	srv  *httptest.Server
	addr string

	served  atomic.Uint64
	fail    atomic.Int32 // HTTP status to force on /v1/run (0 = succeed)
	delay   atomic.Int64 // ns to stall /v1/run before answering
	stopped atomic.Bool  // flipped by /drain

	mu     sync.Mutex
	drains *[]string // shared drain-order log (optional)
}

func newFakeBackend(t *testing.T) *fakeBackend {
	t.Helper()
	fb := &fakeBackend{}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", fb.handleRun)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte(`{"status":"ok","queue_depth":0}`))
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		state := service.Ready.String()
		if fb.stopped.Load() {
			state = service.Stopped.String()
		}
		json.NewEncoder(w).Encode(map[string]string{"status": "ok", "state": state})
	})
	mux.HandleFunc("GET /debug/flightrec", func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(telemetry.RecorderSnapshot{Process: "fake " + fb.addr, TMS: 1})
	})
	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, _ *http.Request) {
		fb.mu.Lock()
		if fb.drains != nil {
			*fb.drains = append(*fb.drains, fb.addr)
		}
		fb.mu.Unlock()
		fb.stopped.Store(true)
		w.WriteHeader(http.StatusAccepted)
	})
	fb.srv = httptest.NewServer(mux)
	fb.addr = fb.srv.Listener.Addr().String()
	t.Cleanup(fb.srv.Close)
	return fb
}

func (fb *fakeBackend) handleRun(w http.ResponseWriter, r *http.Request) {
	// Drain the body before stalling so the server's background read
	// notices a cancelled client and fires r.Context().Done() — without
	// this, hedged losers sleep out their full delay and test cleanup
	// blocks on them.
	body, err := io.ReadAll(r.Body)
	if err != nil {
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	if d := time.Duration(fb.delay.Load()); d > 0 {
		select {
		case <-time.After(d):
		case <-r.Context().Done():
			return
		}
	}
	if code := int(fb.fail.Load()); code != 0 {
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(code)
		json.NewEncoder(w).Encode(service.Response{Error: fmt.Sprintf("forced %d", code)})
		return
	}
	var req service.Request
	if err := json.Unmarshal(body, &req); err != nil {
		w.WriteHeader(http.StatusBadRequest)
		return
	}
	fb.served.Add(1)
	resp := service.Response{Workload: req.Workload, Controller: req.Controller, IPC: 1.5}
	if req.ReturnWindows {
		resp.Windows = clusterWindows(req.Workload, 2)
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(resp)
}

// testFleet spins up n fake backends plus a started front door.
func testFleet(t *testing.T, n int, mut func(*Config)) (*Front, []*fakeBackend) {
	t.Helper()
	fakes := make([]*fakeBackend, n)
	addrs := make([]string, n)
	for i := range fakes {
		fakes[i] = newFakeBackend(t)
		addrs[i] = fakes[i].addr
	}
	cfg := Config{
		Backends:       addrs,
		MaxInFlight:    8,
		RequestTimeout: 5 * time.Second,
		DrainTimeout:   2 * time.Second,
		Probe:          ProbeConfig{Interval: 20 * time.Millisecond},
	}
	if mut != nil {
		mut(&cfg)
	}
	f, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return f, fakes
}

func runReq(workload string, seed int64) service.Request {
	return service.Request{Workload: workload, Controller: "resemble-t", Accesses: 5000, Seed: seed}
}

func postRun(t *testing.T, addr string, req service.Request) (int, string, service.Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+addr+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	defer resp.Body.Close()
	var out service.Response
	_ = json.NewDecoder(resp.Body).Decode(&out)
	return resp.StatusCode, resp.Header.Get("Retry-After"), out
}

func fakeByAddr(fakes []*fakeBackend, addr string) *fakeBackend {
	for _, fb := range fakes {
		if fb.addr == addr {
			return fb
		}
	}
	return nil
}

func TestFrontRequiresBackends(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New with no backends succeeded")
	}
}

// TestFrontRoutesConsistently: identical trace identities always land
// on the ring owner; nothing else serves them.
func TestFrontRoutesConsistently(t *testing.T) {
	f, fakes := testFleet(t, 3, nil)
	req := runReq("433.milc", 7)
	owner, _ := f.Ring().Lookup(RouteKey(req))
	for i := 0; i < 6; i++ {
		status, _, out := postRun(t, f.Addr(), req)
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, status, out.Error)
		}
	}
	for _, fb := range fakes {
		want := uint64(0)
		if fb.addr == owner {
			want = 6
		}
		if got := fb.served.Load(); got != want {
			t.Fatalf("backend %s served %d, want %d (owner %s)", fb.addr, got, want, owner)
		}
	}
	if st := f.Stats(); st.Completed != 6 || st.Failovers != 0 {
		t.Fatalf("stats = %+v, want 6 completed, 0 failovers", st)
	}
}

// TestFrontFailover: a 500 from the primary fails the request over to
// the next backend in the key's ring sequence.
func TestFrontFailover(t *testing.T) {
	f, fakes := testFleet(t, 3, nil)
	req := runReq("433.milc", 11)
	seq := f.Ring().Sequence(RouteKey(req))
	fakeByAddr(fakes, seq[0]).fail.Store(http.StatusInternalServerError)

	status, _, out := postRun(t, f.Addr(), req)
	if status != http.StatusOK {
		t.Fatalf("status %d (%s), want 200 via failover", status, out.Error)
	}
	if got := fakeByAddr(fakes, seq[1]).served.Load(); got != 1 {
		t.Fatalf("first failover target served %d, want 1", got)
	}
	st := f.Stats()
	if st.Failovers != 1 || st.Completed != 1 {
		t.Fatalf("stats = %+v, want 1 failover and 1 completed", st)
	}
}

// TestFrontConnectFailover: a refused connection (killed backend)
// fails over the same way a 5xx does, and once the prober ejects the
// dead backend the fleet /metrics counts it under its backend label.
func TestFrontConnectFailover(t *testing.T) {
	f, fakes := testFleet(t, 3, nil)
	req := runReq("433.milc", 13)
	seq := f.Ring().Sequence(RouteKey(req))
	fakeByAddr(fakes, seq[0]).srv.Close()

	status, _, out := postRun(t, f.Addr(), req)
	if status != http.StatusOK {
		t.Fatalf("status %d (%s), want 200 via connect failover", status, out.Error)
	}
	if f.Stats().Failovers != 1 {
		t.Fatalf("failovers = %d, want 1", f.Stats().Failovers)
	}
	waitFor(t, "ejection", func() bool { return f.Health().Breaker(seq[0]).State() == resilience.Open })
	samples, err := telemetry.ParsePrometheus(strings.NewReader(scrapeMetrics(t, f)))
	if err != nil {
		t.Fatalf("fleet /metrics exposition: %v", err)
	}
	for _, smp := range samples {
		if smp.Name == "cluster_backend_ejections_total" && smp.Labels["backend"] == seq[0] && smp.Value >= 1 {
			return
		}
	}
	t.Fatalf("fleet /metrics has no cluster_backend_ejections_total{backend=%q} >= 1", seq[0])
}

// TestFrontTerminalClientError: a 4xx from a backend is authoritative
// — passed through, never retried.
func TestFrontTerminalClientError(t *testing.T) {
	f, fakes := testFleet(t, 2, nil)
	req := runReq("433.milc", 17)
	seq := f.Ring().Sequence(RouteKey(req))
	fakeByAddr(fakes, seq[0]).fail.Store(http.StatusUnprocessableEntity)

	status, _, _ := postRun(t, f.Addr(), req)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status %d, want 422 passed through", status)
	}
	if st := f.Stats(); st.Failovers != 0 || st.Failed != 1 {
		t.Fatalf("stats = %+v, want no failover and 1 failed", st)
	}
}

func TestFrontBadRequests(t *testing.T) {
	f, _ := testFleet(t, 1, nil)
	resp, err := http.Post("http://"+f.Addr()+"/v1/run", "application/json",
		strings.NewReader("{not json"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}
	status, _, _ := postRun(t, f.Addr(), service.Request{Workload: "w"}) // no controller
	if status != http.StatusBadRequest {
		t.Fatalf("missing controller: status %d, want 400", status)
	}
}

// TestFrontHedge: a silent primary is hedged on the next backend after
// HedgeAfter and the hedge's answer wins; the launch leaves a "hedge"
// breadcrumb in the front's flight recorder and a "hedge" span.
func TestFrontHedge(t *testing.T) {
	tel := newKeepCollector(t)
	f, fakes := testFleet(t, 3, func(c *Config) {
		c.HedgeAfter = 25 * time.Millisecond
		c.Telemetry = tel
	})
	req := runReq("433.milc", 19)
	seq := f.Ring().Sequence(RouteKey(req))
	fakeByAddr(fakes, seq[0]).delay.Store(int64(2 * time.Second))

	began := time.Now()
	status, _, out := postRun(t, f.Addr(), req)
	if status != http.StatusOK {
		t.Fatalf("status %d (%s), want 200 via hedge", status, out.Error)
	}
	if took := time.Since(began); took > time.Second {
		t.Fatalf("hedged request took %v — hedge did not fire", took)
	}
	st := f.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats = %+v, want 1 hedge and 1 hedge win", st)
	}
	if got := fakeByAddr(fakes, seq[1]).served.Load(); got != 1 {
		t.Fatalf("hedge target served %d, want 1", got)
	}

	noted := false
	events := f.ops.Recorder.Snapshot().Events
	for _, ev := range events {
		noted = noted || (ev.Kind == "hedge" && ev.Detail == seq[1])
	}
	if !noted {
		t.Errorf("front flight recorder has no hedge breadcrumb for %s: %+v", seq[1], events)
	}
	waitFor(t, "hedge span", func() bool {
		for _, sp := range tel.Spans() {
			if sp.Name == "hedge" && sp.Proc == "front" {
				return true
			}
		}
		return false
	})
}

// TestFrontShedsOverload: in-flight admission is bounded; excess load
// gets 503 + Retry-After with the overloaded reason, and capacity
// recovers afterwards.
func TestFrontShedsOverload(t *testing.T) {
	f, fakes := testFleet(t, 1, func(c *Config) { c.MaxInFlight = 1 })
	fakes[0].delay.Store(int64(300 * time.Millisecond))

	const clients = 3
	type result struct {
		status     int
		retryAfter string
		reason     string
	}
	results := make(chan result, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, _ := json.Marshal(runReq("433.milc", 23))
			resp, err := http.Post("http://"+f.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Errorf("POST: %v", err)
				return
			}
			defer resp.Body.Close()
			var out struct {
				Reason string `json:"reason"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&out)
			results <- result{resp.StatusCode, resp.Header.Get("Retry-After"), out.Reason}
		}()
	}
	wg.Wait()
	close(results)
	oks, sheds := 0, 0
	for r := range results {
		switch r.status {
		case http.StatusOK:
			oks++
		case http.StatusServiceUnavailable:
			sheds++
			if r.retryAfter == "" {
				t.Fatal("shed 503 missing Retry-After")
			}
			if r.reason != service.ReadyReasonOverloaded {
				t.Fatalf("shed reason %q, want %q", r.reason, service.ReadyReasonOverloaded)
			}
		default:
			t.Fatalf("unexpected status %d", r.status)
		}
	}
	if oks < 1 || sheds < 1 {
		t.Fatalf("oks=%d sheds=%d, want at least one of each", oks, sheds)
	}
	if got := f.Stats().Shed; got != uint64(sheds) {
		t.Fatalf("stats.Shed = %d, want %d", got, sheds)
	}
	fakes[0].delay.Store(0)
	if status, _, _ := postRun(t, f.Addr(), runReq("433.milc", 23)); status != http.StatusOK {
		t.Fatalf("post-shed request status %d, want 200 (capacity leaked?)", status)
	}
}

// TestFrontMergesWindowsInAdmissionOrder: the front door's collector
// receives every run's windows in admission order, and clients only
// see windows when they asked for them.
func TestFrontMergesWindowsInAdmissionOrder(t *testing.T) {
	tel := newKeepCollector(t)
	f, _ := testFleet(t, 3, func(c *Config) { c.Telemetry = tel })

	workloads := []string{"433.milc", "470.lbm", "429.mcf", "462.libquantum"}
	for i, wl := range workloads {
		status, _, out := postRun(t, f.Addr(), runReq(wl, int64(i)))
		if status != http.StatusOK {
			t.Fatalf("%s: status %d (%s)", wl, status, out.Error)
		}
		if out.Windows != nil {
			t.Fatalf("%s: client got windows without asking", wl)
		}
	}
	var wantOrder []string
	for _, wl := range workloads {
		wantOrder = append(wantOrder, wl, wl) // 2 windows per run
	}
	ws := tel.Windows()
	if len(ws) != len(wantOrder) {
		t.Fatalf("collector holds %d windows, want %d", len(ws), len(wantOrder))
	}
	for i, w := range ws {
		if w.Workload != wantOrder[i] {
			t.Fatalf("window %d from %q, want %q", i, w.Workload, wantOrder[i])
		}
	}

	// A client that asks for windows gets them back unchanged.
	req := runReq("433.milc", 0)
	req.ReturnWindows = true
	status, _, out := postRun(t, f.Addr(), req)
	if status != http.StatusOK || len(out.Windows) != 2 {
		t.Fatalf("ReturnWindows request: status %d, %d windows, want 200 with 2", status, len(out.Windows))
	}
}

// TestFrontMetrics: the fleet exposition carries per-backend labeled
// families and the front's own counters.
func TestFrontMetrics(t *testing.T) {
	tel := newKeepCollector(t)
	f, _ := testFleet(t, 2, func(c *Config) { c.Telemetry = tel })
	if status, _, out := postRun(t, f.Addr(), runReq("433.milc", 3)); status != http.StatusOK {
		t.Fatalf("warm-up request failed: %d (%s)", status, out.Error)
	}
	resp, err := http.Get("http://" + f.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	for _, want := range []string{
		"cluster_requests_admitted_total 1",
		"cluster_requests_completed_total 1",
		"cluster_backends_healthy 2",
		`cluster_backend_state{backend="`,
		`cluster_backend_served_total{backend="`,
		"cluster_ready 1",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestFrontDrain: draining closes admission with the draining reason,
// quiesces the backends in address order, and is idempotent.
func TestFrontDrain(t *testing.T) {
	var drainLog []string
	f, fakes := testFleet(t, 3, func(c *Config) { c.DrainBackends = true })
	for _, fb := range fakes {
		fb.mu.Lock()
		fb.drains = &drainLog
		fb.mu.Unlock()
	}
	if status, _, _ := postRun(t, f.Addr(), runReq("433.milc", 29)); status != http.StatusOK {
		t.Fatal("pre-drain request failed")
	}
	if err := f.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if err := f.Close(); err != nil {
		t.Fatalf("second drain: %v", err)
	}
	if f.State() != service.Stopped {
		t.Fatalf("state = %v, want stopped", f.State())
	}
	addrs := f.Ring().Backends()
	if len(drainLog) != len(addrs) {
		t.Fatalf("drained %d backends (%v), want %d", len(drainLog), drainLog, len(addrs))
	}
	for i := range addrs {
		if drainLog[i] != addrs[i] {
			t.Fatalf("drain order %v, want address order %v", drainLog, addrs)
		}
	}
	// The HTTP front is down; the handler itself refuses with the
	// draining reason.
	rec := httptest.NewRecorder()
	body, _ := json.Marshal(runReq("433.milc", 31))
	f.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/run", bytes.NewReader(body)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-drain run status %d, want 503", rec.Code)
	}
	var out struct {
		Reason string `json:"reason"`
	}
	_ = json.Unmarshal(rec.Body.Bytes(), &out)
	if out.Reason != service.ReadyReasonDraining {
		t.Fatalf("post-drain reason %q, want %q", out.Reason, service.ReadyReasonDraining)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("post-drain 503 missing Retry-After")
	}
}
