package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"resemble/internal/telemetry"
)

// postWithTraceParent fires one request carrying an inbound trace
// context header, as the cluster front door does.
func postWithTraceParent(t *testing.T, s *Service, req Request, ref telemetry.SpanRef) (int, Response) {
	t.Helper()
	body, _ := json.Marshal(req)
	hreq, err := http.NewRequest(http.MethodPost, "http://"+s.Addr()+"/v1/run", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	hreq.Header.Set("Content-Type", "application/json")
	if v := telemetry.FormatSpanRef(ref); v != "" {
		hreq.Header.Set(telemetry.TraceParentHeader, v)
	}
	resp, err := http.DefaultClient.Do(hreq)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out Response
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response (status %d): %v", resp.StatusCode, err)
	}
	return resp.StatusCode, out
}

// TestInboundTraceContextShipsSpans: a request carrying a trace-parent
// header and return_spans gets its whole span tree back, parented
// under the inbound ref — the backend half of cross-process stitching.
func TestInboundTraceContextShipsSpans(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) { c.Telemetry = tel })
	ref := telemetry.SpanRef{ID: 0xabcdef0123456789, Track: "freq:0007"}
	status, out := postWithTraceParent(t, s,
		Request{Workload: "433.milc", Controller: "resemble-t", ReturnSpans: true}, ref)
	if status != http.StatusOK {
		t.Fatalf("run: status %d (%s)", status, out.Error)
	}
	if len(out.Spans) == 0 {
		t.Fatal("no spans shipped")
	}
	byName := map[string]telemetry.SpanRecord{}
	ids := map[telemetry.SpanID]bool{ref.ID: true}
	for _, sp := range out.Spans {
		byName[sp.Name] = sp
		ids[sp.ID] = true
	}
	for _, want := range []string{"request", "admission", "worker.serve", "sim.run"} {
		if _, ok := byName[want]; !ok {
			t.Errorf("shipped spans missing %q", want)
		}
	}
	reqSpan := byName["request"]
	if reqSpan.Parent != ref.ID {
		t.Errorf("request span parent %016x, want the inbound ref %016x",
			uint64(reqSpan.Parent), uint64(ref.ID))
	}
	if reqSpan.Track != ref.Track {
		t.Errorf("request span track %q, want the inbound track %q", reqSpan.Track, ref.Track)
	}
	for _, sp := range out.Spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Errorf("span %q has dangling parent %016x", sp.Name, uint64(sp.Parent))
		}
	}

	// Without return_spans the response stays span-free (and the
	// header alone must not bloat it).
	if status, out := postWithTraceParent(t, s,
		Request{Workload: "433.milc", Controller: "resemble-t"}, ref); status != http.StatusOK {
		t.Fatalf("second run: status %d", status)
	} else if len(out.Spans) != 0 {
		t.Fatalf("spans shipped without return_spans: %d", len(out.Spans))
	}
}

// TestMetricsHistoryEndpoint: the sampler fills the ring and
// /metrics/history serves it with its retention parameters.
func TestMetricsHistoryEndpoint(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) {
		c.Telemetry = tel
		c.HistoryEvery = 10 * time.Millisecond
		c.HistorySamples = 64
	})
	if status, out := post(t, s, Request{Workload: "433.milc", Controller: "bo"}); status != http.StatusOK {
		t.Fatalf("run: status %d (%s)", status, out.Error)
	}
	deadline := time.Now().Add(5 * time.Second)
	var hist struct {
		PeriodMS int64                     `json:"period_ms"`
		Capacity int                       `json:"capacity"`
		Count    int                       `json:"count"`
		Samples  []telemetry.HistorySample `json:"samples"`
	}
	for {
		resp, err := http.Get("http://" + s.Addr() + "/metrics/history")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&hist)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if hist.Count >= 3 && hist.Samples[hist.Count-1].Counters["service.requests.admitted"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("history never filled: %+v", hist)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if hist.PeriodMS != 10 || hist.Capacity != 64 {
		t.Fatalf("period_ms=%d capacity=%d, want 10/64", hist.PeriodMS, hist.Capacity)
	}
	last := hist.Samples[hist.Count-1]
	if last.Gauges["service.queue.capacity"] != 8 {
		t.Errorf("sample gauges missing queue capacity: %v", last.Gauges)
	}
	if last.TMS < hist.Samples[0].TMS {
		t.Error("samples not oldest-first")
	}
}

// TestIncidentEndpoints: manual capture produces a bundle carrying the
// ring, spans and history; /debug/incidents and /debug/flightrec agree.
func TestIncidentEndpoints(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) {
		c.Telemetry = tel
		c.HistoryEvery = 10 * time.Millisecond
	})
	if status, out := post(t, s, Request{Workload: "433.milc", Controller: "bo"}); status != http.StatusOK {
		t.Fatalf("run: status %d (%s)", status, out.Error)
	}
	time.Sleep(30 * time.Millisecond) // a couple of history ticks

	resp, err := http.Post("http://"+s.Addr()+"/debug/incidents/capture", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	var inc telemetry.Incident
	if err := json.NewDecoder(resp.Body).Decode(&inc); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("capture: status %d", resp.StatusCode)
	}
	if inc.Trigger != "manual: POST /debug/incidents/capture" || inc.Seq == 0 {
		t.Fatalf("capture incident = %+v", inc)
	}
	if inc.Process != "resembled "+s.Addr() {
		t.Errorf("incident process %q, want %q", inc.Process, "resembled "+s.Addr())
	}
	if len(inc.Spans) == 0 {
		t.Error("incident carries no spans")
	}
	if len(inc.History) == 0 {
		t.Error("incident carries no metrics history")
	}

	var list struct {
		Count     int                  `json:"count"`
		Incidents []telemetry.Incident `json:"incidents"`
	}
	resp, err = http.Get("http://" + s.Addr() + "/debug/incidents")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if list.Count != 1 || list.Incidents[0].Seq != inc.Seq {
		t.Fatalf("incident list = %+v, want the captured bundle", list)
	}

	var snap telemetry.RecorderSnapshot
	resp, err = http.Get("http://" + s.Addr() + "/debug/flightrec")
	if err != nil {
		t.Fatal(err)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Process != inc.Process || len(snap.History) == 0 {
		t.Fatalf("flightrec snapshot = %+v", snap)
	}
	// Snapshot is non-mutating: no new incident appeared.
	resp, _ = http.Get("http://" + s.Addr() + "/debug/incidents")
	_ = json.NewDecoder(resp.Body).Decode(&list)
	resp.Body.Close()
	if list.Count != 1 {
		t.Fatalf("flightrec snapshot minted an incident: count %d", list.Count)
	}
}

// TestIncidentEndpointsDisabledWithoutTelemetry: with no collector the
// recorder endpoints answer cleanly instead of 500ing.
func TestIncidentEndpointsDisabledWithoutTelemetry(t *testing.T) {
	s := startService(t, nil)
	resp, err := http.Get("http://" + s.Addr() + "/debug/incidents")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/debug/incidents without telemetry: %d", resp.StatusCode)
	}
	resp, err = http.Post("http://"+s.Addr()+"/debug/incidents/capture", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("capture without telemetry: %d, want 503", resp.StatusCode)
	}
	resp, err = http.Get("http://" + s.Addr() + "/metrics/history")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics/history without telemetry: %d", resp.StatusCode)
	}
}

// TestIncidentP99BreachTrigger: with IncidentP99MS set, the history
// sampler's per-tick hook captures a p99.breach incident once the
// request-latency p99 exceeds the limit.
func TestIncidentP99BreachTrigger(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) {
		c.Telemetry = tel
		c.HistoryEvery = 10 * time.Millisecond
		c.IncidentP99MS = 1e-6
	})
	if status, out := post(t, s, Request{Workload: "433.milc", Controller: "bo"}); status != http.StatusOK {
		t.Fatalf("run: status %d (%s)", status, out.Error)
	}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		for _, inc := range s.ops.Recorder.Incidents() {
			if inc.Trigger == "p99.breach" {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no p99.breach incident after a request over the limit")
		}
	}
}
