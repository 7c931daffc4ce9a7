package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"time"
)

// The operator surface: the nine routes both daemons serve to
// operators and to the front door's prober (liveness, readiness,
// metrics, metrics history, stats, incidents, incident capture, the
// flight-recorder snapshot and drain), written once. The daemon
// supplies only what differs, as SurfaceConfig function fields. Every
// 503 carries Retry-After (WriteJSON adds it) and a machine-readable
// reason. Without a collector every route still answers: the lists
// are [], /metrics carries the daemon's overlay and the runtime
// gauges, and a manual capture answers 503 with reason "disabled".

// RetryAfter is the Retry-After hint on every 503 either daemon sends.
const RetryAfter = "1"

// SurfaceConfig is what a daemon supplies to its operator surface.
// State, Ready, Overlay, Stats and Drain are required.
type SurfaceConfig struct {
	// Process names the daemon in flight-recorder snapshots
	// ("resembled"); Start appends the bound listen address.
	Process string
	// HistoryEvery is the metrics-history sampling period (default
	// DefaultHistoryEvery); HistorySamples the ring size (default
	// DefaultHistorySamples).
	HistoryEvery   time.Duration
	HistorySamples int
	// IncidentMinInterval rate-limits automatic incident captures
	// (default 5s; manual captures always fire) and Decorate attaches
	// daemon context to each (see RecorderConfig).
	IncidentMinInterval time.Duration
	Decorate            func(*Incident)

	// State names the lifecycle position for /healthz.
	State func() string
	// Ready decides /readyz: a non-empty reason answers 503 carrying
	// it, otherwise body is the 200 payload.
	Ready func() (body any, reason string)
	// Overlay writes the daemon's own counters and gauges over the
	// registry snapshot behind /metrics and /metrics/history, and over
	// the metrics.json the collector writes at Close.
	Overlay func(*RegistrySnapshot)
	// Rules fold per-instance metric names into labeled families on
	// /metrics.
	Rules []LabelRule
	// Stats is the /stats payload.
	Stats func() any
	// Incidents, when set, replaces the recorder's retained incidents
	// as the /debug/incidents list (n is its length); Capture, when
	// set, turns a manual capture into the route's payload. The front
	// door serves fleet bundles through both.
	Incidents func() (list any, n int)
	Capture   func(Incident) any
	// Drain runs the daemon's graceful drain; POST /drain starts it in
	// the background.
	Drain func() error
	// Tick, when set, runs after every history sample.
	Tick func()
}

// Surface is one daemon's operator surface: the shared routes, the
// metrics-history sampler, and the History and FlightRecorder pair
// built from the daemon's collector.
type Surface struct {
	// Recorder is the incident flight recorder: nil without a
	// collector, and nil-safe, so trigger sites never branch.
	Recorder *FlightRecorder

	cfg     SurfaceConfig
	history *History  // nil without a collector
	reg     *Registry // the collector's, or one carrying only the runtime gauges
	start   time.Time // process uptime anchor

	stop, done chan struct{} // sampler lifetime; nil until Start
}

// NewSurface builds the surface over col (nil disables history and
// the flight recorder).
func NewSurface(col *Collector, cfg SurfaceConfig) *Surface {
	if cfg.HistoryEvery <= 0 {
		cfg.HistoryEvery = DefaultHistoryEvery
	}
	o := &Surface{cfg: cfg, reg: col.Registry(), start: time.Now()}
	if o.reg == nil {
		o.reg = NewRegistry()
	}
	if col != nil {
		col.overlay = cfg.Overlay
		o.history = NewHistory(cfg.HistorySamples)
		o.Recorder = NewFlightRecorder(RecorderConfig{
			Process:     cfg.Process,
			MinInterval: cfg.IncidentMinInterval,
			Decorate:    cfg.Decorate,
		}, col, o.history)
	}
	return o
}

// Start labels the recorder with the bound listen address and starts
// the history sampler. Call it before the HTTP server serves, so a
// POST /drain cannot race it.
func (o *Surface) Start(addr string) {
	o.Recorder.SetProcess(o.cfg.Process + " " + addr)
	if o.history == nil {
		return
	}
	o.stop, o.done = make(chan struct{}), make(chan struct{})
	go o.sample()
}

// Stop ends the sampler and waits for it (a no-op if it never
// started). Call it at most once.
func (o *Surface) Stop() {
	if o.stop != nil {
		close(o.stop)
		<-o.done
	}
}

// sample records the exposition into the history ring every
// HistoryEvery, with one immediate sample so even a short-lived daemon
// has history.
func (o *Surface) sample() {
	defer close(o.done)
	t := time.NewTicker(o.cfg.HistoryEvery)
	defer t.Stop()
	o.history.Record(time.Now(), o.snapshot())
	for {
		select {
		case now := <-t.C:
			o.history.Record(now, o.snapshot())
			if o.cfg.Tick != nil {
				o.cfg.Tick()
			}
		case <-o.stop:
			return
		}
	}
}

// snapshot is the exposition view: the registry with its runtime
// gauges refreshed and the daemon's overlay written over it.
func (o *Surface) snapshot() RegistrySnapshot {
	UpdateRuntimeGauges(o.reg, o.start)
	snap := o.reg.Snapshot()
	o.cfg.Overlay(&snap)
	return snap
}

// Register adds the nine shared routes to mux.
func (o *Surface) Register(mux *http.ServeMux) {
	// Liveness: 200 while the process serves HTTP, draining included.
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, map[string]string{"status": "ok", "state": o.cfg.State()})
	})
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		if body, reason := o.cfg.Ready(); reason != "" {
			WriteUnavailable(w, reason, "")
		} else {
			WriteJSON(w, http.StatusOK, body)
		}
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", PromContentType)
		_ = WritePrometheus(w, o.snapshot(), o.cfg.Rules...)
	})
	// The sample ring: enough to reconstruct the minute before an
	// incident without external scrape infrastructure.
	mux.HandleFunc("GET /metrics/history", func(w http.ResponseWriter, _ *http.Request) {
		samples := o.history.Samples()
		if samples == nil {
			samples = []HistorySample{}
		}
		WriteJSON(w, http.StatusOK, map[string]any{
			"period_ms": o.cfg.HistoryEvery.Milliseconds(),
			"capacity":  o.history.Cap(),
			"count":     len(samples),
			"samples":   samples,
		})
	})
	mux.HandleFunc("GET /stats", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, o.cfg.Stats())
	})
	mux.HandleFunc("GET /debug/incidents", func(w http.ResponseWriter, _ *http.Request) {
		var list any
		var n int
		if o.cfg.Incidents != nil {
			list, n = o.cfg.Incidents()
		} else {
			incs := o.Recorder.Incidents()
			list, n = incs, len(incs)
		}
		if n == 0 {
			list = []struct{}{}
		}
		WriteJSON(w, http.StatusOK, map[string]any{"count": n, "incidents": list})
	})
	// A manual capture bypasses the automatic-trigger rate limit.
	mux.HandleFunc("POST /debug/incidents/capture", func(w http.ResponseWriter, _ *http.Request) {
		if o.Recorder == nil {
			WriteUnavailable(w, "disabled", "flight recorder disabled (no telemetry collector)")
			return
		}
		inc := o.Recorder.Capture("manual: POST /debug/incidents/capture", "")
		if o.cfg.Capture == nil {
			WriteJSON(w, http.StatusOK, inc)
		} else {
			WriteJSON(w, http.StatusOK, o.cfg.Capture(inc))
		}
	})
	// The raw ring without capturing an incident: what a front door
	// pulls from each backend for a fleet bundle.
	mux.HandleFunc("GET /debug/flightrec", func(w http.ResponseWriter, _ *http.Request) {
		WriteJSON(w, http.StatusOK, o.Recorder.Snapshot())
	})
	// The drain runs in the background; poll /healthz for "stopped".
	mux.HandleFunc("POST /drain", func(w http.ResponseWriter, _ *http.Request) {
		go func() { _ = o.cfg.Drain() }()
		WriteJSON(w, http.StatusAccepted, map[string]string{"status": "draining"})
	})
}

// WriteJSON answers status with v as indented JSON. A 503 also gets
// Retry-After, so every refusal tells the client when to come back.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	if status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", RetryAfter)
	}
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v) // headers are out; nothing useful to do on error
}

// WriteUnavailable answers 503 with a machine-readable reason and an
// optional message: {"status":"unavailable","reason":...,"error":...}.
func WriteUnavailable(w http.ResponseWriter, reason, msg string) {
	WriteJSON(w, http.StatusServiceUnavailable, struct {
		Status string `json:"status"`
		Reason string `json:"reason"`
		Error  string `json:"error,omitempty"`
	}{"unavailable", reason, msg})
}

// NewLogger builds a daemon's structured logger from its -log-level
// flag: a text slog handler on w at that level, or a discard logger
// when level is empty. Both daemons tag every request record with its
// seq and root span ID, correlating logs with the span trace.
func NewLogger(w io.Writer, level string) (*slog.Logger, error) {
	if level == "" {
		return slog.New(slog.DiscardHandler), nil
	}
	var lv slog.Level
	if err := lv.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("bad -log-level %q: want debug|info|warn|error", level)
	}
	return slog.New(slog.NewTextHandler(w, &slog.HandlerOptions{Level: lv})), nil
}
