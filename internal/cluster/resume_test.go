package cluster

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"resemble/internal/cas"
	"resemble/internal/service"
	"resemble/internal/telemetry"
)

// startBackend starts one real resembled engine (not a fake) with a
// window-keeping collector; mut adjusts the config before New.
func startBackend(t *testing.T, mut func(*service.Config)) *service.Service {
	t.Helper()
	tel, err := telemetry.New(telemetry.Config{KeepWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg := service.Config{
		Workers:        2,
		QueueDepth:     8,
		RequestTimeout: 30 * time.Second,
		DrainTimeout:   10 * time.Second,
		Telemetry:      tel,
	}
	if mut != nil {
		mut(&cfg)
	}
	s, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s
}

// TestFrontFailoverResume is the cluster acceptance test for durable
// failover: a backend killed mid-run leaves checkpoints in the shared
// store; the front door's failover retry forwards resume_from, the
// surviving backend continues the run where it left off, and the final
// response is byte-identical to an undisturbed single-instance run.
// The kill is also an incident: the request stitches into one valid
// cross-process trace without the killed backend's spans, and the
// failover bundle embeds the survivor's metrics history.
func TestFrontFailoverResume(t *testing.T) {
	store, rep, err := cas.Open(filepath.Join(t.TempDir(), "store"))
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("fresh store sweep: %v", rep)
	}
	// History sampled every 50 ms into 1,200 slots: the 60 s retention
	// of DESIGN.md §15 at a density that shows in a short test.
	resumable := func(c *service.Config) {
		c.Store = store
		c.RunCheckpointEvery = 1024
		c.HistoryEvery = 50 * time.Millisecond
		c.HistorySamples = 1200
	}
	started := time.Now()
	b1 := startBackend(t, resumable)
	b2 := startBackend(t, resumable)
	byAddr := map[string]*service.Service{b1.Addr(): b1, b2.Addr(): b2}
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	f, err := New(Config{
		Backends:       []string{b1.Addr(), b2.Addr()},
		Store:          store,
		RequestTimeout: 60 * time.Second,
		Probe:          ProbeConfig{Interval: 20 * time.Millisecond},
		Telemetry:      tel,
		HistoryEvery:   50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })

	// Let the backends' history fill, so the bundle check below has a
	// window to measure.
	time.Sleep(time.Until(started.Add(1500 * time.Millisecond)))

	req := service.Request{Workload: "433.milc", Controller: "bo",
		Accesses: 150000, Seed: 5, ReturnWindows: true}
	seq := f.Ring().Sequence(RouteKey(req))
	primary, secondary := byAddr[seq[0]], byAddr[seq[1]]

	type outcome struct {
		status int
		resp   service.Response
	}
	done := make(chan outcome, 1)
	go func() {
		body, _ := json.Marshal(req)
		resp, err := http.Post("http://"+f.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			done <- outcome{}
			return
		}
		defer resp.Body.Close()
		var out service.Response
		_ = json.NewDecoder(resp.Body).Decode(&out)
		done <- outcome{resp.StatusCode, out}
	}()

	// Kill the primary only once the run has durable checkpoints, so
	// the failover has something to resume from.
	deadline := time.Now().Add(15 * time.Second)
	for primary.Stats().RunCkpWrites < 2 {
		if time.Now().After(deadline) {
			t.Fatal("primary never wrote run checkpoints")
		}
		time.Sleep(2 * time.Millisecond)
	}
	primary.Abort()

	got := <-done
	if got.status != http.StatusOK {
		t.Fatalf("failover response: status %d (%s)", got.status, got.resp.Error)
	}
	if got.resp.ResumedFrom == "" {
		t.Fatal("failover retry ran from scratch: response carries no resumed_from")
	}
	if st := f.Stats(); st.Failovers != 1 || st.ResumedRetries != 1 {
		t.Fatalf("front stats = %+v, want 1 failover carrying a resume", st)
	}
	if st := secondary.Stats(); st.Resumes != 1 || st.ResumeFallbacks != 0 {
		t.Fatalf("surviving backend stats = %+v, want exactly 1 warm start", st)
	}

	checkKillTrace(t, tel, seq[0])
	checkKillBundle(t, f, seq[0], started)

	// Reference: the identical request against a lone, undisturbed,
	// storeless backend must produce the same bytes.
	ref := startBackend(t, nil)
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+ref.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var want service.Response
	if err := json.NewDecoder(resp.Body).Decode(&want); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference run: status %d (%s)", resp.StatusCode, want.Error)
	}

	wj, _ := json.Marshal(want.Windows)
	gj, _ := json.Marshal(got.resp.Windows)
	if len(want.Windows) == 0 || !bytes.Equal(wj, gj) {
		t.Errorf("resumed-elsewhere window stream differs from single-instance run (%d vs %d windows)",
			len(got.resp.Windows), len(want.Windows))
	}
	got.resp.DurationMS, want.DurationMS = 0, 0
	got.resp.CheckpointID, got.resp.ResumedFrom = "", ""
	if !reflect.DeepEqual(want, got.resp) {
		t.Errorf("resumed-elsewhere response differs from single-instance run:\nwant %+v\ngot  %+v", want, got.resp)
	}
}

// checkKillTrace: the killed-then-resumed request stitches into one
// trace holding the front's request, the killed attempt and the resumed
// attempt, plus the survivor's adopted spans and none from the killed
// backend, and its Chrome export validates.
func checkKillTrace(t *testing.T, tel *telemetry.Collector, killed string) {
	t.Helper()
	var spans []telemetry.SpanRecord
	names := map[string]int{}
	procs := map[string]bool{}
	// The front's request span ends a hair after the response is out.
	for deadline := time.Now().Add(5 * time.Second); names["request"] == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		spans = tel.Spans()
		clear(names)
		for _, sp := range spans {
			if sp.Proc == "front" {
				names[sp.Name]++
			} else {
				procs[sp.Proc] = true
			}
		}
	}
	for _, want := range []string{"request", "attempt", "attempt.resume"} {
		if names[want] != 1 {
			t.Errorf("stitched trace has %d front %q spans, want 1 (front spans %v)", names[want], want, names)
		}
	}
	if len(procs) != 1 || procs["backend "+killed] {
		t.Errorf("stitched trace adopted spans from %v, want the survivor's only (killed %s)", procs, killed)
	}
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, spans); err != nil {
		t.Fatal(err)
	}
	if err := telemetry.ValidateChromeTrace(&buf); err != nil {
		t.Errorf("stitched kill trace: %v", err)
	}
}

// checkKillBundle: the failover assembles a fleet bundle carrying the
// front's history, a pull error for the killed backend, and each
// survivor's metrics history over min(30 s, its uptime at the
// incident), less half a second of sampler slack.
func checkKillBundle(t *testing.T, f *Front, killed string, started time.Time) {
	t.Helper()
	var bundle *FleetIncident
	for deadline := time.Now().Add(10 * time.Second); bundle == nil; time.Sleep(10 * time.Millisecond) {
		for _, fi := range f.FleetIncidents() {
			if fi.Incident.Trigger == "failover" {
				bundle = &fi
			}
		}
		if bundle == nil && time.Now().After(deadline) {
			t.Fatal("no failover fleet bundle assembled")
		}
	}
	if len(bundle.Incident.History) == 0 {
		t.Error("failover bundle carries no front-door metrics history")
	}
	if len(bundle.Backends) != 2 || bundle.Backends[killed].Error == "" {
		t.Errorf("failover bundle backends = %v, want 2 with a pull error for the killed %s", bundle.Backends, killed)
	}
	want := min(30*time.Second, time.Duration(bundle.Incident.TMS-started.UnixMilli())*time.Millisecond-500*time.Millisecond)
	for addr, ring := range bundle.Backends {
		if addr == killed {
			continue
		}
		if ring.Snapshot == nil || len(ring.Snapshot.History) == 0 {
			t.Errorf("survivor %s shipped no metrics history (%s)", addr, ring.Error)
			continue
		}
		hist := ring.Snapshot.History
		if span := time.Duration(hist[len(hist)-1].TMS-hist[0].TMS) * time.Millisecond; span < want {
			t.Errorf("survivor %s history spans %v, want >= %v", addr, span, want)
		}
	}
}

// TestEvery503PathSetsRetryAfter pins the uniform backpressure
// contract: every path through the front door that answers 503 —
// admission while draining, in-flight shedding, a backend's 503 passed
// through, and both readiness refusals — carries Retry-After.
func TestEvery503PathSetsRetryAfter(t *testing.T) {
	hit := func(f *Front, method, path string, body []byte) *httptest.ResponseRecorder {
		t.Helper()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		rec := httptest.NewRecorder()
		f.Handler().ServeHTTP(rec, httptest.NewRequest(method, path, rd))
		return rec
	}
	body, _ := json.Marshal(runReq("433.milc", 41))
	cases := []struct {
		name string
		rec  func(t *testing.T) *httptest.ResponseRecorder
	}{
		{"run while draining", func(t *testing.T) *httptest.ResponseRecorder {
			f, _ := testFleet(t, 1, nil)
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			return hit(f, http.MethodPost, "/v1/run", body)
		}},
		{"run shed at in-flight limit", func(t *testing.T) *httptest.ResponseRecorder {
			f, _ := testFleet(t, 1, func(c *Config) { c.MaxInFlight = 1 })
			f.tokens <- struct{}{}
			return hit(f, http.MethodPost, "/v1/run", body)
		}},
		{"backend 503 passed through", func(t *testing.T) *httptest.ResponseRecorder {
			f, fakes := testFleet(t, 1, nil)
			fakes[0].fail.Store(http.StatusServiceUnavailable)
			return hit(f, http.MethodPost, "/v1/run", body)
		}},
		{"readyz while draining", func(t *testing.T) *httptest.ResponseRecorder {
			f, _ := testFleet(t, 1, nil)
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			return hit(f, http.MethodGet, "/readyz", nil)
		}},
		{"readyz at in-flight limit", func(t *testing.T) *httptest.ResponseRecorder {
			f, _ := testFleet(t, 1, func(c *Config) { c.MaxInFlight = 1 })
			f.tokens <- struct{}{}
			return hit(f, http.MethodGet, "/readyz", nil)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			rec := tc.rec(t)
			if rec.Code != http.StatusServiceUnavailable {
				t.Fatalf("status %d, want 503", rec.Code)
			}
			if rec.Header().Get("Retry-After") == "" {
				t.Fatal("503 missing Retry-After")
			}
		})
	}
}

// TestRetryBudgetExhaustedMetric: a denied failover surfaces as the
// cluster_retry_budget_exhausted_total counter on /metrics.
func TestRetryBudgetExhaustedMetric(t *testing.T) {
	// A sub-token budget denies the very first failover.
	f, fakes := testFleet(t, 2, func(c *Config) { c.RetryBudget = 0.5 })
	req := runReq("433.milc", 11)
	seq := f.Ring().Sequence(RouteKey(req))
	fakeByAddr(fakes, seq[0]).fail.Store(http.StatusInternalServerError)

	status, _, _ := postRun(t, f.Addr(), req)
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want the primary's 500 passed through (failover denied)", status)
	}
	if st := f.Stats(); st.RetriesDenied != 1 || st.Failovers != 0 {
		t.Fatalf("stats = %+v, want 1 denied retry and 0 failovers", st)
	}
	resp, err := http.Get("http://" + f.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	text, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(text), "cluster_retry_budget_exhausted_total 1") {
		t.Fatalf("/metrics missing cluster_retry_budget_exhausted_total 1 in:\n%s", text)
	}
}
