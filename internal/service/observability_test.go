package service

import (
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"resemble/internal/telemetry"
)

// TestMetricsExposition: /metrics serves valid OpenMetrics text with
// the service's counters, gauges, per-arm breaker families and
// runtime health gauges, under the declared Content-Type.
func TestMetricsExposition(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{KeepWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) { c.Telemetry = tel })
	if status, out := post(t, s, Request{Workload: "433.milc", Controller: "resemble-t"}); status != http.StatusOK {
		t.Fatalf("run: status %d (%s)", status, out.Error)
	}

	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != telemetry.PromContentType {
		t.Errorf("Content-Type = %q, want %q", ct, telemetry.PromContentType)
	}
	samples, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("/metrics fails the exposition grammar: %v", err)
	}

	byName := map[string]float64{}
	arms := map[string]bool{}
	for _, smp := range samples {
		byName[smp.Name] = smp.Value
		if smp.Name == "service_breaker_state" {
			arms[smp.Labels["arm"]] = true
		}
	}
	if byName["service_requests_admitted_total"] < 1 {
		t.Errorf("admitted counter = %v, want >= 1", byName["service_requests_admitted_total"])
	}
	if byName["service_requests_completed_total"] < 1 {
		t.Errorf("completed counter = %v, want >= 1", byName["service_requests_completed_total"])
	}
	if byName["service_ready"] != 1 {
		t.Errorf("service_ready = %v, want 1 on an idle ready service", byName["service_ready"])
	}
	if byName["runtime_goroutines"] < 1 {
		t.Errorf("runtime_goroutines missing from exposition")
	}
	if byName["process_uptime_seconds"] <= 0 {
		t.Errorf("process_uptime_seconds = %v, want > 0", byName["process_uptime_seconds"])
	}
	if !arms["bo"] || !arms["spp"] {
		t.Errorf("per-arm breaker families missing arms: got %v", arms)
	}
	if _, ok := byName["service_queue_capacity"]; !ok {
		t.Error("queue capacity gauge missing")
	}
}

// TestMetricsHistoryHoldsRegistryAndServiceCounters: with /metrics.json
// gone, the newest /metrics/history sample is the JSON view of both
// halves — registry instruments (the latency histogram folds to its
// p99 gauge) and the service's own counters.
func TestMetricsHistoryHoldsRegistryAndServiceCounters(t *testing.T) {
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
	deadline := time.Now().Add(5 * time.Second)
	for {
		var hist struct {
			Samples []telemetry.HistorySample `json:"samples"`
		}
		resp, err := http.Get("http://" + s.Addr() + "/metrics/history")
		if err != nil {
			t.Fatal(err)
		}
		err = json.NewDecoder(resp.Body).Decode(&hist)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if n := len(hist.Samples); n > 0 {
			last := hist.Samples[n-1]
			_, masked := last.Counters["service.runs.masked"]
			if last.Counters["service.requests.completed"] >= 1 && masked &&
				last.Gauges["service.request.latency.ms.p99"] > 0 {
				return
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("newest history sample lacks registry or service counters: %+v", hist.Samples)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestExplainEndpoint: with explain sampling on, /v1/explain returns
// the sampled decision records and every record's chosen arm is a
// valid arm of the run's controller.
func TestExplainEndpoint(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{ExplainSample: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) { c.Telemetry = tel })
	if status, out := post(t, s, Request{Workload: "433.milc", Controller: "resemble-t"}); status != http.StatusOK {
		t.Fatalf("run: status %d (%s)", status, out.Error)
	}

	resp, err := http.Get("http://" + s.Addr() + "/v1/explain?n=25")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out struct {
		SampleRate int                  `json:"sample_rate"`
		Count      int                  `json:"count"`
		Decisions  []telemetry.Decision `json:"decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.SampleRate != 1 {
		t.Errorf("sample_rate = %d, want 1", out.SampleRate)
	}
	if out.Count == 0 || len(out.Decisions) == 0 {
		t.Fatal("no decisions surfaced after an RL run with sampling on")
	}
	if out.Count > 25 {
		t.Errorf("count %d exceeds requested bound 25", out.Count)
	}
	for _, d := range out.Decisions {
		if d.Action < 0 || d.Action >= len(d.Q) {
			t.Errorf("decision %d: action %d outside its Q vector (%d)", d.Seq, d.Action, len(d.Q))
		}
		if !d.Resolved {
			t.Errorf("decision %d: unresolved record surfaced", d.Seq)
		}
	}

	// Bad n values are rejected, not clamped silently.
	if code := getStatus(t, s, "/v1/explain?n=bogus"); code != http.StatusBadRequest {
		t.Errorf("bad n: status %d, want 400", code)
	}
}

// TestExplainEndpointDisabled: without telemetry the endpoint answers
// an empty, well-formed payload instead of erroring.
func TestExplainEndpointDisabled(t *testing.T) {
	s := startService(t, nil)
	resp, err := http.Get("http://" + s.Addr() + "/v1/explain")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}
	var out struct {
		Count     int                  `json:"count"`
		Decisions []telemetry.Decision `json:"decisions"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if out.Count != 0 || out.Decisions == nil {
		t.Errorf("disabled explain: count=%d decisions=%v, want 0 and empty array", out.Count, out.Decisions)
	}
}

// TestMetricsWithoutTelemetry: /metrics works with no collector —
// service counters and runtime gauges still expose and parse.
func TestMetricsWithoutTelemetry(t *testing.T) {
	s := startService(t, nil)
	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("/metrics without telemetry fails grammar: %v", err)
	}
	found := false
	for _, smp := range samples {
		if smp.Name == "runtime_goroutines" {
			found = true
		}
	}
	if !found {
		t.Error("runtime gauges missing when telemetry is disabled")
	}
}

// TestRequestSpans: a served request leaves a request -> admission /
// worker.serve / sim.run span tree on the collector with no dangling
// parents.
func TestRequestSpans(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) { c.Telemetry = tel })
	if status, out := post(t, s, Request{Workload: "433.milc", Controller: "none"}); status != http.StatusOK {
		t.Fatalf("run: status %d (%s)", status, out.Error)
	}

	spans := tel.Spans()
	names := map[string]int{}
	ids := map[telemetry.SpanID]bool{}
	var reqID telemetry.SpanID
	for _, sp := range spans {
		names[sp.Name]++
		ids[sp.ID] = true
		if sp.Name == "request" {
			reqID = sp.ID
		}
	}
	for _, want := range []string{"request", "admission", "worker.serve", "sim.run"} {
		if names[want] == 0 {
			t.Errorf("span %q missing from request trace (got %v)", want, names)
		}
	}
	for _, sp := range spans {
		if sp.Parent != 0 && !ids[sp.Parent] {
			t.Errorf("span %s has dangling parent %016x", sp.Name, uint64(sp.Parent))
		}
		// The cross-collector hop: the worker's sim.run must hang off
		// the request span recorded at admission.
		if sp.Name == "sim.run" && sp.Parent != reqID {
			t.Errorf("sim.run parent = %016x, want request span %016x", uint64(sp.Parent), uint64(reqID))
		}
	}
}
