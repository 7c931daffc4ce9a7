package cluster

import (
	"encoding/json"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"resemble/internal/resilience"
)

// ProbeConfig parameterizes the active health prober. The zero value
// probes every 500ms with a 2s per-probe timeout and default breaker
// settings.
type ProbeConfig struct {
	// Interval is the probe period per backend (default 500ms).
	Interval time.Duration
	// Timeout bounds one probe HTTP round trip (default 2s).
	Timeout time.Duration
	// Breaker parameterizes each backend's ejection breaker. The
	// defaults (3 consecutive failures to eject, 5s ejection, 2 clean
	// probes to readmit) suit sub-second probe intervals.
	Breaker resilience.BreakerConfig
	// Client overrides the probe HTTP client (nil builds one from
	// Timeout).
	Client *http.Client
	// OnTransition observes every backend breaker state change.
	OnTransition func(backend string, from, to resilience.BreakerState)
	// Logf receives probe-path log lines (nil discards).
	Logf func(format string, args ...any)
}

func (c ProbeConfig) withDefaults() ProbeConfig {
	if c.Interval <= 0 {
		c.Interval = 500 * time.Millisecond
	}
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Client == nil {
		// Own transport: probe keep-alives must not share (and race)
		// http.DefaultTransport's per-host pool with other clients.
		c.Client = &http.Client{
			Timeout:   c.Timeout,
			Transport: &http.Transport{MaxIdleConnsPerHost: 2},
		}
	}
	if c.Logf == nil {
		c.Logf = func(string, ...any) {}
	}
	return c
}

// backendHealth is one backend's health record: its ejection breaker
// plus the last probe's observation.
type backendHealth struct {
	addr    string
	breaker *resilience.Breaker

	reason     atomic.Value // string: "ok" | "draining" | "overloaded" | "unreachable" | "unprobed"
	queueDepth atomic.Int64 // last /readyz-reported queue depth (-1 unknown)
	probes     atomic.Uint64
	failures   atomic.Uint64
}

// Health actively probes a fixed set of backends and gates routing on
// a per-backend resilience.Breaker: consecutive probe (or request)
// failures eject a backend, the breaker's open interval expires into
// half-open, and clean probes readmit it. Probe outcomes and live
// request outcomes feed the same breaker, so a backend that probes
// healthy but fails real traffic is still ejected.
type Health struct {
	cfg      ProbeConfig
	backends map[string]*backendHealth

	stop chan struct{}
	wg   sync.WaitGroup
	once sync.Once
}

// NewHealth builds a prober over the backend set (not yet started).
func NewHealth(backends []string, cfg ProbeConfig) *Health {
	cfg = cfg.withDefaults()
	h := &Health{
		cfg:      cfg,
		backends: make(map[string]*backendHealth, len(backends)),
		stop:     make(chan struct{}),
	}
	for _, addr := range backends {
		addr := addr
		bcfg := cfg.Breaker
		prev := bcfg.OnTransition
		bcfg.OnTransition = func(from, to resilience.BreakerState) {
			cfg.Logf("cluster: backend %s: %s -> %s", addr, from, to)
			if cfg.OnTransition != nil {
				cfg.OnTransition(addr, from, to)
			}
			if prev != nil {
				prev(from, to)
			}
		}
		bh := &backendHealth{addr: addr, breaker: resilience.NewBreaker(bcfg)}
		bh.reason.Store("unprobed")
		bh.queueDepth.Store(-1)
		h.backends[addr] = bh
	}
	return h
}

// Start launches one probe loop per backend.
func (h *Health) Start() {
	for _, bh := range h.backends {
		h.wg.Add(1)
		go h.probeLoop(bh)
	}
}

// Stop halts the probe loops, waits for them to exit, and drops the
// probe client's pooled keep-alive conns so backends can shut down
// without waiting on them. Idempotent.
func (h *Health) Stop() {
	h.once.Do(func() { close(h.stop) })
	h.wg.Wait()
	h.cfg.Client.CloseIdleConnections()
}

// probeLoop scrapes one backend's /readyz until Stop. Each tick first
// lets the breaker advance an expired ejection to half-open (the
// readmission window), then reports the probe outcome.
func (h *Health) probeLoop(bh *backendHealth) {
	defer h.wg.Done()
	t := time.NewTicker(h.cfg.Interval)
	defer t.Stop()
	for {
		h.probe(bh)
		select {
		case <-t.C:
		case <-h.stop:
			return
		}
	}
}

// probe performs one /readyz round trip and feeds the breaker.
func (h *Health) probe(bh *backendHealth) {
	bh.breaker.Allow() // advance an expired ejection to half-open
	bh.probes.Add(1)
	resp, err := h.cfg.Client.Get("http://" + bh.addr + "/readyz")
	if err != nil {
		bh.reason.Store("unreachable")
		bh.queueDepth.Store(-1)
		bh.failures.Add(1)
		bh.breaker.Report(false)
		return
	}
	defer resp.Body.Close()
	var body struct {
		Reason     string `json:"reason"`
		QueueDepth int64  `json:"queue_depth"`
	}
	_ = json.NewDecoder(resp.Body).Decode(&body)
	if resp.StatusCode == http.StatusOK {
		bh.reason.Store("ok")
		bh.queueDepth.Store(body.QueueDepth)
		bh.breaker.Report(true)
		return
	}
	reason := body.Reason
	if reason == "" {
		reason = "unready"
	}
	bh.reason.Store(reason)
	bh.failures.Add(1)
	bh.breaker.Report(false)
}

// Allowed reports whether the backend may receive traffic right now
// (closed or half-open breaker; half-open traffic is the readmission
// probe). Unknown backends are never allowed.
func (h *Health) Allowed(backend string) bool {
	bh, ok := h.backends[backend]
	return ok && bh.breaker.Allow()
}

// Order filters seq (a ring failover sequence) down to the backends
// currently allowed. When every backend is ejected it returns seq
// unchanged: trying a dead-looking backend beats failing a request
// without a single attempt, and a success will start re-closing its
// breaker.
func (h *Health) Order(seq []string) []string {
	out := make([]string, 0, len(seq))
	for _, b := range seq {
		if h.Allowed(b) {
			out = append(out, b)
		}
	}
	if len(out) == 0 {
		return seq
	}
	return out
}

// Report feeds a live request outcome into the backend's breaker —
// the request path's contribution to ejection and readmission.
func (h *Health) Report(backend string, ok bool) {
	if bh, exists := h.backends[backend]; exists {
		bh.breaker.Report(ok)
	}
}

// Breaker returns the backend's breaker (nil when unknown), for
// in-process assertions on ejection and readmission.
func (h *Health) Breaker(backend string) *resilience.Breaker {
	bh, ok := h.backends[backend]
	if !ok {
		return nil
	}
	return bh.breaker
}

// BackendStatus is one backend's point-in-time health view.
type BackendStatus struct {
	Backend     string `json:"backend"`
	State       string `json:"state"` // breaker state name
	Reason      string `json:"reason"`
	QueueDepth  int64  `json:"queue_depth"` // -1 unknown
	Probes      uint64 `json:"probes"`
	Failures    uint64 `json:"failures"`
	Ejections   uint64 `json:"ejections"`
	Transitions uint64 `json:"transitions"`
}

// Status snapshots every backend in address order.
func (h *Health) Status() []BackendStatus {
	out := make([]BackendStatus, 0, len(h.backends))
	for _, bh := range h.backends {
		reason, _ := bh.reason.Load().(string)
		out = append(out, BackendStatus{
			Backend:     bh.addr,
			State:       bh.breaker.StateName(),
			Reason:      reason,
			QueueDepth:  bh.queueDepth.Load(),
			Probes:      bh.probes.Load(),
			Failures:    bh.failures.Load(),
			Ejections:   bh.breaker.Trips(),
			Transitions: bh.breaker.Transitions(),
		})
	}
	sortStatuses(out)
	return out
}

func sortStatuses(s []BackendStatus) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j].Backend < s[j-1].Backend; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// HealthyCount returns how many backends are currently allowed.
func (h *Health) HealthyCount() int {
	n := 0
	for _, bh := range h.backends {
		if bh.breaker.State() != resilience.Open {
			n++
		}
	}
	return n
}
