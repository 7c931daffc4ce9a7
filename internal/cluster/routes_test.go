package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"resemble/internal/service"
	"resemble/internal/telemetry"
)

// surfaceRoute is one row of the operator surface's route contract.
type surfaceRoute struct {
	method, path string
	status       int      // with telemetry on
	offStatus    int      // with telemetry off (0: same as status)
	reason       string   // the 503 body's reason
	keys         []string // JSON keys every 2xx body carries (none for /metrics)
	lists        []string // keys whose value is [] with telemetry off
}

// surfaceRoutes is the nine shared routes. POST /drain is last: it
// starts the daemon's drain.
var surfaceRoutes = []surfaceRoute{
	{method: "GET", path: "/healthz", status: 200, keys: []string{"status", "state"}},
	{method: "GET", path: "/readyz", status: 200, keys: []string{"status"}},
	{method: "GET", path: "/metrics", status: 200},
	{method: "GET", path: "/metrics/history", status: 200,
		keys: []string{"period_ms", "capacity", "count", "samples"}, lists: []string{"samples"}},
	{method: "GET", path: "/stats", status: 200,
		keys: []string{"state", "requests_admitted", "requests_completed", "requests_failed"}},
	{method: "GET", path: "/debug/incidents", status: 200,
		keys: []string{"count", "incidents"}, lists: []string{"incidents"}},
	{method: "POST", path: "/debug/incidents/capture", status: 200, offStatus: 503, reason: "disabled"},
	{method: "GET", path: "/debug/flightrec", status: 200, keys: []string{"process", "t_ms"}},
	{method: "POST", path: "/drain", status: 202, keys: []string{"status"}},
}

// surfaceDaemon is one daemon under the route contract, with the body
// keys only it carries.
type surfaceDaemon struct {
	name    string
	handler http.Handler
	extra   map[string][]string // path -> daemon-specific 2xx keys
}

// contractDaemons starts a real service and a front door over it.
func contractDaemons(t *testing.T, withTelemetry bool) []surfaceDaemon {
	t.Helper()
	collector := func() *telemetry.Collector {
		if !withTelemetry {
			return nil
		}
		tel, err := telemetry.New(telemetry.Config{})
		if err != nil {
			t.Fatal(err)
		}
		return tel
	}
	svc, err := service.New(service.Config{Workers: 1, DrainTimeout: 10 * time.Second, Telemetry: collector()})
	if err != nil {
		t.Fatal(err)
	}
	if err := svc.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = svc.Close() })
	f, err := New(Config{
		Backends:     []string{svc.Addr()},
		DrainTimeout: 10 * time.Second,
		Probe:        ProbeConfig{Interval: 20 * time.Millisecond},
		Telemetry:    collector(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = f.Close() })
	return []surfaceDaemon{
		{"resembled", svc.Handler(), map[string][]string{
			"/readyz":                  {"queue_depth", "queue_cap"},
			"/stats":                   {"queue_depth", "breakers"},
			"/debug/incidents/capture": {"seq", "trigger", "process"},
		}},
		{"resemblefront", f.Handler(), map[string][]string{
			"/readyz":                  {"in_flight", "healthy_backends"},
			"/stats":                   {"failovers", "backends"},
			"/debug/incidents/capture": {"incident", "backends"},
		}},
	}
}

// TestRouteContract runs the shared route table against both daemons'
// handlers, with telemetry on and off: status, Content-Type,
// Retry-After and reason on every 503, the body keys, and [] (never
// null) for the lists telemetry would fill. After POST /drain each
// daemon's readiness refuses with the one readiness-503 body.
func TestRouteContract(t *testing.T) {
	for _, on := range []bool{true, false} {
		t.Run(fmt.Sprintf("telemetry=%v", on), func(t *testing.T) {
			for _, d := range contractDaemons(t, on) {
				t.Run(d.name, func(t *testing.T) {
					for _, r := range surfaceRoutes {
						want := r.status
						if !on && r.offStatus != 0 {
							want = r.offStatus
						}
						rec := httptest.NewRecorder()
						d.handler.ServeHTTP(rec, httptest.NewRequest(r.method, r.path, nil))
						if rec.Code != want {
							t.Errorf("%s %s: status %d, want %d", r.method, r.path, rec.Code, want)
							continue
						}
						checkRouteBody(t, r, d.extra[r.path], rec, on)
					}
					// The drain runs in the background; readiness must turn
					// to a draining 503.
					ready := surfaceRoute{method: "GET", path: "/readyz", reason: service.ReadyReasonDraining}
					for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(5 * time.Millisecond) {
						rec := httptest.NewRecorder()
						d.handler.ServeHTTP(rec, httptest.NewRequest(ready.method, ready.path, nil))
						if rec.Code == http.StatusServiceUnavailable {
							checkRouteBody(t, ready, nil, rec, on)
							break
						}
						if time.Now().After(deadline) {
							t.Fatalf("/readyz still %d after POST /drain", rec.Code)
						}
					}
				})
			}
		})
	}
}

// checkRouteBody checks one answer's headers and body against r.
func checkRouteBody(t *testing.T, r surfaceRoute, extra []string, rec *httptest.ResponseRecorder, on bool) {
	t.Helper()
	where := r.method + " " + r.path
	ct := rec.Header().Get("Content-Type")
	if r.path == "/metrics" {
		if ct != telemetry.PromContentType {
			t.Errorf("%s: Content-Type %q, want %q", where, ct, telemetry.PromContentType)
		}
		if _, err := telemetry.ParsePrometheus(rec.Body); err != nil {
			t.Errorf("%s: exposition invalid: %v", where, err)
		}
		return
	}
	if ct != "application/json" {
		t.Errorf("%s: Content-Type %q, want application/json", where, ct)
	}
	var body map[string]json.RawMessage
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Errorf("%s: body is not a JSON object: %v", where, err)
		return
	}
	if rec.Code == http.StatusServiceUnavailable {
		if got := rec.Header().Get("Retry-After"); got != telemetry.RetryAfter {
			t.Errorf("%s: 503 Retry-After %q, want %q", where, got, telemetry.RetryAfter)
		}
		var reason string
		_ = json.Unmarshal(body["reason"], &reason)
		if reason != r.reason || string(body["status"]) != `"unavailable"` {
			t.Errorf("%s: 503 body %s, want status unavailable and reason %q", where, rec.Body, r.reason)
		}
		return
	}
	for _, k := range append(append([]string(nil), r.keys...), extra...) {
		if _, ok := body[k]; !ok {
			t.Errorf("%s: body lacks %q: %s", where, k, rec.Body)
		}
	}
	if !on {
		for _, k := range r.lists {
			if string(body[k]) != "[]" {
				t.Errorf("%s: %q = %s with telemetry off, want []", where, k, body[k])
			}
		}
	}
}
