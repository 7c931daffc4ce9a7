package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"resemble/internal/cas"
	"resemble/internal/flatmap"
	"resemble/internal/resilience"
	"resemble/internal/service"
	"resemble/internal/telemetry"
)

// Config parameterizes a Front. Backends is required; everything else
// has serviceable defaults.
type Config struct {
	// Addr is the front door's listen address (default "127.0.0.1:0").
	Addr string
	// Backends lists the resembled instances ("host:port") the front
	// door routes across. Required, duplicates ignored.
	Backends []string
	// Replicas is the consistent-hash virtual-node count per backend
	// (default DefaultReplicas).
	Replicas int

	// HedgeAfter launches a hedged copy of a request on the next
	// healthy backend when the primary hasn't answered within this
	// duration; the first answer wins. 0 disables hedging. Safe
	// because the deterministic run contract makes every execution of
	// a request byte-equivalent.
	HedgeAfter time.Duration
	// RetryBudget is the shared failover token bucket's capacity
	// (default 10; each failover spends a token, each success refunds
	// a tenth) — a fleet-wide outage costs one attempt per request
	// instead of MaxAttempts.
	RetryBudget float64
	// MaxAttempts bounds how many distinct backends one request may
	// try, hedges included (default: all of them).
	MaxAttempts int

	// MaxInFlight bounds concurrently admitted requests; excess load
	// is shed with 503 + Retry-After before reaching any backend
	// (default 64).
	MaxInFlight int
	// RequestTimeout bounds one request end to end across all
	// failover and hedge attempts (default 120s).
	RequestTimeout time.Duration
	// DrainTimeout bounds the front door's own drain, and each
	// backend's quiesce when DrainBackends is set (default 30s).
	DrainTimeout time.Duration
	// DrainBackends makes Drain quiesce the backends in address order
	// after the front door itself has drained.
	DrainBackends bool

	// Probe parameterizes the active health prober.
	Probe ProbeConfig

	// Store, when non-nil, is the durable artifact store the backends
	// checkpoint their runs into. A failover retry of an interrupted
	// run then resolves the run's last durable checkpoint and forwards
	// the request with resume_from set, so the next backend continues
	// the run instead of restarting it — with byte-identical output,
	// per the determinism contract. Requires the backends to share this
	// store (same directory) and the request to carry an explicit
	// accesses count (the front door cannot hash a run identity it
	// doesn't fully know; accesses == 0 falls back to scratch retries).
	Store *cas.Store

	// Telemetry, when non-nil, carries the front door's registry
	// metrics and receives every run's windows, merged in
	// admission-seq order (the cluster determinism contract). It also
	// turns on distributed tracing: every dispatch attempt carries a
	// trace-parent header, and the backend's span tree is stitched
	// under the front door's request span (see DESIGN.md §15). Nil
	// disables both; runs are still routed.
	Telemetry *telemetry.Collector
	// HistoryEvery, HistorySamples and IncidentMinInterval configure the
	// operator surface (see telemetry.SurfaceConfig); they only matter
	// with Telemetry set.
	HistoryEvery        time.Duration
	HistorySamples      int
	IncidentMinInterval time.Duration
	// Logf receives operational log lines (nil discards them unless
	// Logger is set); Logger receives structured request logs.
	Logf   func(format string, args ...any)
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Replicas <= 0 {
		c.Replicas = DefaultReplicas
	}
	if c.RetryBudget <= 0 {
		c.RetryBudget = 10
	}
	if c.MaxInFlight <= 0 {
		c.MaxInFlight = 64
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 120 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.DiscardHandler)
	}
	if c.Logf == nil {
		lg := c.Logger
		c.Logf = func(format string, args ...any) { lg.Info(fmt.Sprintf(format, args...)) }
	}
	return c
}

// backendCounters is the front door's per-backend accounting.
type backendCounters struct {
	served    atomic.Uint64 // successful responses
	failovers atomic.Uint64 // failures here that moved the request on
	hedges    atomic.Uint64 // hedge attempts launched here
	retries   atomic.Uint64 // failover attempts launched here
}

// frontCounters is the front door's own always-on accounting.
type frontCounters struct {
	admitted, completed, failed atomic.Uint64
	shed, rejected              atomic.Uint64
	failovers, hedges           atomic.Uint64
	hedgeWins, retriesDenied    atomic.Uint64
	// Every hedge launch resolves to exactly one of won (its answer was
	// used), lost (it finished, but after the winner) or cancelled (the
	// winner's return aborted it mid-flight).
	hedgeLost, hedgeCancelled atomic.Uint64
	// resumedRetries counts failover attempts forwarded with
	// resume_from pointing at the interrupted run's last durable
	// checkpoint (requires Config.Store).
	resumedRetries atomic.Uint64
}

// Front is the cluster coordinator: one HTTP front door that
// consistent-hashes /v1/run requests across N resembled backends with
// health-gated failover, hedging, bounded admission and seq-ordered
// telemetry merging. See the package doc for the layer map.
type Front struct {
	cfg    Config
	ring   *Ring
	health *Health
	budget *resilience.Budget
	client *http.Client

	ln       net.Listener
	srv      *http.Server
	unused   resilience.UnusedConns // closed by the HTTP shutdown
	httpDone chan struct{}

	state atomic.Int32 // service.State

	admitMu sync.Mutex
	nextSeq uint64
	commits *committer

	tokens chan struct{} // in-flight slots

	stats   frontCounters
	perBack map[string]*backendCounters

	// ops is the operator surface shared with the backends: the nine
	// debug routes, the metrics-history sampler and the incident flight
	// recorder (ops.Recorder, nil-safe without telemetry).
	ops *telemetry.Surface

	fleetMu sync.Mutex
	fleet   flatmap.Queue[FleetIncident]

	drainOnce sync.Once
	drainErr  error
	drained   chan struct{}
}

// fleetIncidentCap is how many fleet bundles the front door keeps (the
// newest).
const fleetIncidentCap = 16

// New validates the configuration and builds a stopped front door;
// Start makes it listen and route.
func New(cfg Config) (*Front, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Backends) == 0 {
		return nil, errors.New("cluster: at least one backend is required")
	}
	f := &Front{
		cfg:    cfg,
		ring:   NewRing(cfg.Replicas),
		budget: &resilience.Budget{Capacity: cfg.RetryBudget, Ratio: 0.1},
		// Per-request contexts bound the round trips. The dedicated
		// transport keeps the front's keep-alive pool out of
		// http.DefaultTransport, so the idle connections Drain
		// releases are the front's own.
		client:   &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4}},
		httpDone: make(chan struct{}),
		tokens:   make(chan struct{}, cfg.MaxInFlight),
		perBack:  make(map[string]*backendCounters),
		drained:  make(chan struct{}),
		commits:  newCommitter(cfg.Telemetry),
	}
	for _, b := range cfg.Backends {
		f.ring.Add(b)
		if _, ok := f.perBack[b]; !ok {
			f.perBack[b] = &backendCounters{}
		}
	}
	probe := cfg.Probe
	probe.Logf = cfg.Logf
	f.health = NewHealth(f.ring.Backends(), probe)
	// Front spans carry the "front" process label in stitched traces;
	// adopted backend spans are stamped per backend at adoption.
	cfg.Telemetry.SetProc("front")
	f.ops = telemetry.NewSurface(cfg.Telemetry, f.surfaceConfig())
	return f, nil
}

// Addr returns the bound listen address (empty before Start).
func (f *Front) Addr() string {
	if f.ln == nil {
		return ""
	}
	return f.ln.Addr().String()
}

// State returns the lifecycle position (service.State semantics).
func (f *Front) State() service.State { return service.State(f.state.Load()) }

// Health exposes the prober for in-process assertions.
func (f *Front) Health() *Health { return f.health }

// Ring exposes the routing ring for in-process assertions.
func (f *Front) Ring() *Ring { return f.ring }

// Start binds the listener, launches the HTTP server and the health
// prober, and begins admitting.
func (f *Front) Start() error {
	if !f.state.CompareAndSwap(int32(service.Starting), int32(service.Ready)) {
		return errors.New("cluster: front already started")
	}
	ln, err := net.Listen("tcp", f.cfg.Addr)
	if err != nil {
		return fmt.Errorf("cluster: %w", err)
	}
	f.ln = ln
	f.ops.Start(f.Addr())
	f.srv = &http.Server{Handler: f.Handler(), ReadHeaderTimeout: 10 * time.Second}
	f.unused.Install(f.srv)
	go func() {
		defer close(f.httpDone)
		if serr := f.srv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			f.cfg.Logf("cluster: http server: %v", serr)
		}
	}()
	f.health.Start()
	f.cfg.Logf("cluster: front door ready on %s over %d backends %v",
		f.Addr(), f.ring.Len(), f.ring.Backends())
	return nil
}

// Handler returns the front door's HTTP API:
//
//	POST /v1/run  route a simulation to its backend (failover/hedge)
//
// plus the nine operator routes shared with the backends
// (telemetry.Surface): /metrics is fleet-wide, /stats carries
// per-backend health, and the incident routes serve fleet bundles.
func (f *Front) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", f.handleRun)
	f.ops.Register(mux)
	return mux
}

// surfaceConfig is what the front door supplies to its operator
// surface.
func (f *Front) surfaceConfig() telemetry.SurfaceConfig {
	return telemetry.SurfaceConfig{
		Process:             "resemblefront",
		HistoryEvery:        f.cfg.HistoryEvery,
		HistorySamples:      f.cfg.HistorySamples,
		IncidentMinInterval: f.cfg.IncidentMinInterval,
		State:               func() string { return f.State().String() },
		Ready:               f.readiness,
		Overlay:             f.overlay,
		Rules: []telemetry.LabelRule{
			{Prefix: "cluster.backend.state", Label: "backend"},
			{Prefix: "cluster.backend.queue.depth", Label: "backend"},
			{Prefix: "cluster.backend.ejections", Label: "backend"},
			{Prefix: "cluster.backend.transitions", Label: "backend"},
			{Prefix: "cluster.backend.probe.failures", Label: "backend"},
			{Prefix: "cluster.backend.served", Label: "backend"},
			{Prefix: "cluster.backend.failovers", Label: "backend"},
			{Prefix: "cluster.backend.hedges", Label: "backend"},
			{Prefix: "cluster.backend.retries", Label: "backend"},
		},
		Stats: func() any { return f.Stats() },
		Incidents: func() (any, int) {
			list := f.FleetIncidents()
			return list, len(list)
		},
		Capture: func(inc telemetry.Incident) any { return f.assembleFleetBundle(inc) },
		Drain:   f.Close,
	}
}

// RouteKey derives the consistent-hash key from the request's
// workload/trace identity — controller excluded on purpose, so every
// run over the same trace lands on the backend whose trace cache
// already holds it. Exported so harnesses can ask the ring who owns a
// request.
func RouteKey(req service.Request) string {
	return fmt.Sprintf("%s|%d|%d", req.Workload, req.Accesses, req.Seed)
}

// handleRun admits, routes and answers one simulation request.
func (f *Front) handleRun(w http.ResponseWriter, r *http.Request) {
	if f.State() != service.Ready {
		f.stats.rejected.Add(1)
		telemetry.WriteUnavailable(w, service.ReadyReasonDraining, "front door is draining")
		return
	}
	select {
	case f.tokens <- struct{}{}:
	default:
		f.stats.shed.Add(1)
		f.ops.Recorder.Trigger("shed.burst",
			fmt.Sprintf("front door at %d in-flight requests", cap(f.tokens)))
		telemetry.WriteUnavailable(w, service.ReadyReasonOverloaded,
			fmt.Sprintf("front door at %d in-flight requests: shed", cap(f.tokens)))
		return
	}
	defer func() { <-f.tokens }()

	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, 1<<20))
	if err != nil {
		telemetry.WriteJSON(w, http.StatusBadRequest, service.Response{Error: "bad request body: " + err.Error()})
		return
	}
	var req service.Request
	if err := json.Unmarshal(body, &req); err != nil {
		telemetry.WriteJSON(w, http.StatusBadRequest, service.Response{Error: "bad request body: " + err.Error()})
		return
	}
	if req.Workload == "" || req.Controller == "" {
		telemetry.WriteJSON(w, http.StatusBadRequest, service.Response{Error: "workload and controller are required"})
		return
	}
	// Windows ride back for the admission-seq merge whenever the front
	// door carries a collector, and spans ride back for trace
	// stitching; the client only sees either if it asked.
	clientWantsWindows := req.ReturnWindows
	clientWantsSpans := req.ReturnSpans
	if f.cfg.Telemetry != nil {
		req.ReturnWindows = true
		req.ReturnSpans = true
	}
	payload, err := json.Marshal(req)
	if err != nil {
		telemetry.WriteJSON(w, http.StatusBadRequest, service.Response{Error: err.Error()})
		return
	}

	began := time.Now()
	seq := f.admit()
	// The request root span anchors the whole cross-process trace: its
	// track is globally unique per admission, every dispatch attempt is
	// a child, and the winning backend's shipped tree is adopted under
	// the attempt that produced it.
	rsp := f.cfg.Telemetry.StartSpan(fmt.Sprintf("freq:%04d", seq), "request")
	defer rsp.End()
	ctx, cancel := context.WithTimeout(r.Context(), f.cfg.RequestTimeout)
	defer cancel()
	a := f.dispatch(ctx, RouteKey(req), req, payload, rsp)

	if a.status == http.StatusOK {
		f.commits.commit(seq, a.resp.Windows)
		f.stats.completed.Add(1)
		if bc := f.perBack[a.backend]; bc != nil {
			bc.served.Add(1)
		}
		f.adoptAttemptSpans(a)
		if !clientWantsWindows {
			a.resp.Windows = nil
		}
		if !clientWantsSpans {
			a.resp.Spans = nil
		}
		f.cfg.Logger.Info("request routed",
			"seq", seq, "backend", a.backend, "hedged", a.hedged,
			"workload", req.Workload, "controller", req.Controller,
			"dur_ms", float64(time.Since(began))/float64(time.Millisecond))
		telemetry.WriteJSON(w, http.StatusOK, a.resp)
		return
	}
	// Terminal failure: the seq slot still advances so later runs merge.
	f.commits.commit(seq, nil)
	f.stats.failed.Add(1)
	status := a.status
	switch {
	case status == 0 && errors.Is(a.err, context.DeadlineExceeded):
		status = http.StatusGatewayTimeout
	case status == 0:
		status = http.StatusBadGateway
	}
	resp := a.resp
	if resp.Error == "" && a.err != nil {
		resp.Error = a.err.Error()
	}
	if !clientWantsSpans {
		resp.Spans = nil
	}
	f.cfg.Logger.Warn("request failed",
		"seq", seq, "backend", a.backend, "status", status, "err", resp.Error)
	telemetry.WriteJSON(w, status, resp)
}

// admit assigns the admission sequence number that fixes the request's
// place in the merged telemetry stream.
func (f *Front) admit() uint64 {
	f.admitMu.Lock()
	defer f.admitMu.Unlock()
	seq := f.nextSeq
	f.nextSeq++
	f.stats.admitted.Add(1)
	return seq
}

// attempt is the outcome of one backend try.
type attempt struct {
	backend string
	hedged  bool
	status  int
	resp    service.Response
	err     error
	// span is the front door's view of this try (nil without
	// telemetry): a child of the request span, named "attempt",
	// "attempt.resume" (failover with a durable checkpoint) or "hedge".
	span *telemetry.Span
}

func (a attempt) ok() bool { return a.err == nil && a.status == http.StatusOK }

// terminal reports a response that must not be retried: the backend
// answered authoritatively with a client error.
func (a attempt) terminal() bool {
	return a.err == nil && a.status >= 400 && a.status < 500
}

// dispatch routes one request through the failover/hedge state
// machine: the key's ring sequence (health-filtered) is tried in
// order; a failed attempt fails over to the next backend if the retry
// budget allows, and a silent primary is hedged on the next backend
// after HedgeAfter. The first success wins and cancels the rest.
// With a shared artifact store, each failover retry forwards the
// request with resume_from set to the interrupted run's last durable
// checkpoint, so the next backend continues instead of restarting.
func (f *Front) dispatch(ctx context.Context, key string, req service.Request, payload []byte, rsp *telemetry.Span) attempt {
	order := f.health.Order(f.ring.Sequence(key))
	if f.cfg.MaxAttempts > 0 && len(order) > f.cfg.MaxAttempts {
		order = order[:f.cfg.MaxAttempts]
	}
	if len(order) == 0 {
		return attempt{status: http.StatusServiceUnavailable,
			resp: service.Response{Error: "no backends configured"}}
	}

	actx, cancel := context.WithCancel(ctx)
	defer cancel() // reaps the losers
	results := make(chan attempt, len(order))
	launched := 0
	outstanding := 0
	// Losers still in flight when dispatch returns are drained in the
	// background: their spans end and their hedge outcomes are
	// accounted even though nobody waits for them. Registered after
	// cancel so it runs first; the cancel then aborts the losers.
	defer func() {
		if n := outstanding; n > 0 {
			go func() {
				for i := 0; i < n; i++ {
					a := <-results
					a.span.End()
					f.accountHedge(a, false)
				}
			}()
		}
	}()
	launch := func(hedged bool) {
		b := order[launched]
		launched++
		bc := f.perBack[b]
		p := payload
		name := "attempt"
		switch {
		case hedged:
			name = "hedge"
			f.stats.hedges.Add(1)
			if bc != nil {
				bc.hedges.Add(1)
			}
			f.ops.Recorder.Note("hedge", b)
		case launched > 1:
			if bc != nil {
				bc.retries.Add(1)
			}
			// A failover retry means the previous backend's attempt died
			// mid-run; resolve its freshest durable checkpoint (the
			// checkpoint sink fires at interrupt and periodically, so one
			// usually exists) and hand the run over where it left off.
			if rp := f.resumePayload(req); rp != nil {
				p = rp
				name = "attempt.resume"
			}
		}
		sp := rsp.Child(name)
		go func() { results <- f.tryBackend(actx, b, p, sp, hedged) }()
	}
	launch(false)

	var hedgeC <-chan time.Time
	if f.cfg.HedgeAfter > 0 {
		ht := time.NewTimer(f.cfg.HedgeAfter)
		defer ht.Stop()
		hedgeC = ht.C
	}

	outstanding = 1
	var last attempt
	for {
		select {
		case a := <-results:
			outstanding--
			a.span.End()
			f.accountHedge(a, a.ok())
			if a.ok() {
				f.budget.Refund()
				if a.hedged {
					f.stats.hedgeWins.Add(1)
				}
				return a
			}
			if a.terminal() {
				return a
			}
			last = a
			if bc := f.perBack[a.backend]; bc != nil && launched < len(order) {
				bc.failovers.Add(1)
			}
			if launched < len(order) {
				if f.budget.Spend() {
					f.stats.failovers.Add(1)
					if inc := f.ops.Recorder.Trigger("failover",
						fmt.Sprintf("backend %s failed, retrying on %s", a.backend, order[launched])); inc != nil {
						go f.assembleFleetBundle(*inc)
					}
					launch(false)
					outstanding++
					continue
				}
				f.stats.retriesDenied.Add(1)
				if inc := f.ops.Recorder.Trigger("retry.budget.exhausted",
					fmt.Sprintf("no tokens left to retry past %s", a.backend)); inc != nil {
					go f.assembleFleetBundle(*inc)
				}
				f.cfg.Logf("cluster: retry budget exhausted for %s", a.backend)
			}
			if outstanding == 0 {
				return last
			}
		case <-hedgeC:
			hedgeC = nil
			if launched < len(order) {
				launch(true)
				outstanding++
			}
		case <-actx.Done():
			if last.backend != "" {
				return last
			}
			return attempt{err: actx.Err()}
		}
	}
}

// resumePayload re-marshals req with resume_from set to the run's
// last durable checkpoint in the shared store. nil (scratch retry)
// when there is no store, the run identity is not fully known
// (accesses omitted — the backend default is the backend's business),
// or no checkpoint of this run is durable yet.
func (f *Front) resumePayload(req service.Request) []byte {
	if f.cfg.Store == nil || req.Accesses <= 0 {
		return nil
	}
	key := service.RunKey(req)
	id, ok := f.cfg.Store.Resolve(service.CheckpointLatestTag(key))
	if !ok {
		// The run died before its first durable checkpoint: the retry
		// replays from record zero, which determinism makes equivalent.
		f.cfg.Logf("cluster: failover retries run %.12s… from scratch (no durable checkpoint)", key)
		return nil
	}
	req.ResumeFrom = id.String()
	p, err := json.Marshal(req)
	if err != nil {
		return nil
	}
	f.stats.resumedRetries.Add(1)
	f.cfg.Logf("cluster: failover resumes run %.12s… from checkpoint %.12s…", key, req.ResumeFrom)
	return p
}

// tryBackend performs one backend round trip. Transport failures and
// timeouts feed the backend's breaker; a plain HTTP answer of any
// status reports healthy (the server is alive — readiness is the
// prober's business). A context cancellation reports nothing: losing
// a hedge race is not a health signal.
func (f *Front) tryBackend(ctx context.Context, backend string, payload []byte, sp *telemetry.Span, hedged bool) attempt {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		"http://"+backend+"/v1/run", bytes.NewReader(payload))
	if err != nil {
		return attempt{backend: backend, hedged: hedged, span: sp, err: err}
	}
	req.Header.Set("Content-Type", "application/json")
	// The trace-parent header roots the backend's span tree under this
	// attempt; the backend ships the tree back in Response.Spans.
	if v := telemetry.FormatSpanRef(sp.Ref()); v != "" {
		req.Header.Set(telemetry.TraceParentHeader, v)
	}
	resp, err := f.client.Do(req)
	if err != nil {
		if !errors.Is(err, context.Canceled) {
			f.health.Report(backend, false)
		}
		return attempt{backend: backend, hedged: hedged, span: sp, err: fmt.Errorf("backend %s: %w", backend, err)}
	}
	defer resp.Body.Close()
	var out service.Response
	if derr := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&out); derr != nil {
		// Severed mid-body: a killed backend from the client's side.
		if !errors.Is(derr, context.Canceled) {
			f.health.Report(backend, false)
		}
		return attempt{backend: backend, hedged: hedged, span: sp,
			err: fmt.Errorf("backend %s: truncated response: %w", backend, derr)}
	}
	f.health.Report(backend, true)
	return attempt{backend: backend, hedged: hedged, span: sp, status: resp.StatusCode, resp: out}
}

// accountHedge resolves a hedge launch's outcome counter. won means the
// attempt's answer was used (already counted as a hedge win); a loser
// either finished uselessly (lost) or was aborted by the winner's
// cancel (cancelled).
func (f *Front) accountHedge(a attempt, won bool) {
	if !a.hedged || won {
		return
	}
	if errors.Is(a.err, context.Canceled) {
		f.stats.hedgeCancelled.Add(1)
		return
	}
	f.stats.hedgeLost.Add(1)
}

// adoptAttemptSpans stitches the winning backend's shipped span tree
// into the front door's collector: anchored to the attempt span's
// start (normalizing clock skew between processes — the shipped
// timestamps are on the backend's process epoch, which is unrelated to
// ours), stamped with the backend's process label, and adopted
// verbatim otherwise. Span IDs need no translation because both sides
// derive them from the same FNV-1a scheme rooted at the attempt ID.
func (f *Front) adoptAttemptSpans(a attempt) {
	if f.cfg.Telemetry == nil || a.span == nil || len(a.resp.Spans) == 0 {
		return
	}
	spans := telemetry.AnchorSpans(a.resp.Spans, a.span.Ref().ID, a.span.StartUS())
	for i := range spans {
		if spans[i].Proc == "" {
			spans[i].Proc = "backend " + a.backend
		}
	}
	f.cfg.Telemetry.AdoptSpans(spans)
}

// readiness decides /readyz: ready while admitting with in-flight
// headroom.
func (f *Front) readiness() (any, string) {
	switch {
	case f.State() != service.Ready:
		return nil, service.ReadyReasonDraining
	case len(f.tokens) >= cap(f.tokens):
		return nil, service.ReadyReasonOverloaded
	}
	return map[string]any{
		"status":           "ok",
		"in_flight":        len(f.tokens),
		"max_in_flight":    cap(f.tokens),
		"healthy_backends": f.health.HealthyCount(),
		"backends":         f.ring.Len(),
	}, ""
}

// Stats is the front door's JSON counter view.
type Stats struct {
	State     string `json:"state"`
	Admitted  uint64 `json:"requests_admitted"`
	Completed uint64 `json:"requests_completed"`
	Failed    uint64 `json:"requests_failed"`
	Shed      uint64 `json:"requests_shed"`
	Rejected  uint64 `json:"requests_rejected"`
	Failovers uint64 `json:"failovers"`
	Hedges    uint64 `json:"hedges"`
	HedgeWins uint64 `json:"hedge_wins"`
	// HedgeLost counts hedges that finished after the winner;
	// HedgeCancelled counts hedges aborted mid-flight by the winner's
	// return. hedges == hedge_wins + hedge_lost + hedge_cancelled once
	// everything in flight has drained.
	HedgeLost      uint64 `json:"hedge_lost"`
	HedgeCancelled uint64 `json:"hedge_cancelled"`
	RetriesDenied  uint64 `json:"retries_denied"`
	// ResumedRetries counts failover attempts that carried resume_from
	// (a shared store held a durable checkpoint of the dying run).
	ResumedRetries uint64          `json:"resumed_retries"`
	RetryTokens    float64         `json:"retry_tokens"`
	MergePending   int             `json:"merge_pending"`
	Backends       []BackendStatus `json:"backends"`
}

// Stats snapshots the front counters and per-backend health.
func (f *Front) Stats() Stats {
	return Stats{
		State:          f.State().String(),
		Admitted:       f.stats.admitted.Load(),
		Completed:      f.stats.completed.Load(),
		Failed:         f.stats.failed.Load(),
		Shed:           f.stats.shed.Load(),
		Rejected:       f.stats.rejected.Load(),
		Failovers:      f.stats.failovers.Load(),
		Hedges:         f.stats.hedges.Load(),
		HedgeWins:      f.stats.hedgeWins.Load(),
		HedgeLost:      f.stats.hedgeLost.Load(),
		HedgeCancelled: f.stats.hedgeCancelled.Load(),
		RetriesDenied:  f.stats.retriesDenied.Load(),
		ResumedRetries: f.stats.resumedRetries.Load(),
		RetryTokens:    f.budget.Tokens(),
		MergePending:   f.commits.pending(),
		Backends:       f.health.Status(),
	}
}

// overlay writes the front door's own counters over the fleet-wide
// exposition snapshot, with one labeled family per backend for health
// state, ejections, failovers, hedges, retries and reported queue
// depth.
func (f *Front) overlay(snap *telemetry.RegistrySnapshot) {
	st := f.Stats()
	snap.Counters["cluster.requests.admitted"] = st.Admitted
	snap.Counters["cluster.requests.completed"] = st.Completed
	snap.Counters["cluster.requests.failed"] = st.Failed
	snap.Counters["cluster.requests.shed"] = st.Shed
	snap.Counters["cluster.requests.rejected"] = st.Rejected
	snap.Counters["cluster.failovers"] = st.Failovers
	snap.Counters["cluster.hedges"] = st.Hedges
	snap.Counters["cluster.hedge.wins"] = st.HedgeWins
	// Hedge outcome accounting: won mirrors hedge.wins under the
	// outcome-triple naming so the three resolutions sum to hedges.
	snap.Counters["cluster.hedge.won"] = st.HedgeWins
	snap.Counters["cluster.hedge.lost"] = st.HedgeLost
	snap.Counters["cluster.hedge.cancelled"] = st.HedgeCancelled
	snap.Counters["cluster.retries.denied"] = st.RetriesDenied
	// Exposed as cluster_retry_budget_exhausted_total: each increment is
	// one failover the shared token bucket refused, i.e. the moment the
	// fleet stopped amplifying what looks like a correlated outage.
	snap.Counters["cluster.retry.budget.exhausted"] = st.RetriesDenied
	snap.Counters["cluster.failover.resumes"] = st.ResumedRetries
	snap.Gauges["cluster.retry.budget"] = st.RetryTokens
	snap.Gauges["cluster.inflight"] = float64(len(f.tokens))
	snap.Gauges["cluster.inflight.max"] = float64(cap(f.tokens))
	snap.Gauges["cluster.merge.pending"] = float64(st.MergePending)
	snap.Gauges["cluster.state"] = float64(f.state.Load())
	ready := 0.0
	if f.State() == service.Ready && len(f.tokens) < cap(f.tokens) {
		ready = 1
	}
	snap.Gauges["cluster.ready"] = ready
	snap.Gauges["cluster.backends.healthy"] = float64(f.health.HealthyCount())
	for _, bs := range st.Backends {
		snap.Gauges["cluster.backend.state."+bs.Backend] = breakerStateValue(bs.State)
		snap.Gauges["cluster.backend.queue.depth."+bs.Backend] = float64(bs.QueueDepth)
		snap.Counters["cluster.backend.ejections."+bs.Backend] = bs.Ejections
		snap.Counters["cluster.backend.transitions."+bs.Backend] = bs.Transitions
		snap.Counters["cluster.backend.probe.failures."+bs.Backend] = bs.Failures
		bc := f.perBack[bs.Backend]
		if bc == nil {
			continue
		}
		snap.Counters["cluster.backend.served."+bs.Backend] = bc.served.Load()
		snap.Counters["cluster.backend.failovers."+bs.Backend] = bc.failovers.Load()
		snap.Counters["cluster.backend.hedges."+bs.Backend] = bc.hedges.Load()
		snap.Counters["cluster.backend.retries."+bs.Backend] = bc.retries.Load()
	}
}

// breakerStateValue maps a breaker state name to the gauge encoding
// the service layer uses (closed 0, open 1, half-open 2).
func breakerStateValue(name string) float64 {
	switch name {
	case resilience.Open.String():
		return float64(resilience.Open)
	case resilience.HalfOpen.String():
		return float64(resilience.HalfOpen)
	default:
		return float64(resilience.Closed)
	}
}

// BackendRing is one backend's contribution to a fleet incident
// bundle: its flight-recorder snapshot, or the error that kept the
// front door from pulling it (a killed backend is itself evidence).
type BackendRing struct {
	Error    string                      `json:"error,omitempty"`
	Snapshot *telemetry.RecorderSnapshot `json:"snapshot,omitempty"`
}

// FleetIncident is a fleet-wide incident bundle: the front door's own
// incident (trigger, breadcrumbs, spans, pre-incident metrics history)
// plus every backend's flight-recorder ring pulled at capture time.
type FleetIncident struct {
	Incident telemetry.Incident     `json:"incident"`
	Backends map[string]BackendRing `json:"backends"`
}

// assembleFleetBundle pulls every backend's recorder snapshot and
// keeps the assembled bundle among the newest fleetIncidentCap. Called
// in the background on automatic triggers and synchronously on manual
// capture.
func (f *Front) assembleFleetBundle(inc telemetry.Incident) FleetIncident {
	bundle := FleetIncident{Incident: inc, Backends: make(map[string]BackendRing)}
	for _, b := range f.ring.Backends() {
		bundle.Backends[b] = f.pullBackendRing(b)
	}
	f.fleetMu.Lock()
	f.fleet.PushBounded(bundle, fleetIncidentCap)
	f.fleetMu.Unlock()
	return bundle
}

func (f *Front) pullBackendRing(b string) BackendRing {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+b+"/debug/flightrec", nil)
	if err != nil {
		return BackendRing{Error: err.Error()}
	}
	resp, err := f.client.Do(req)
	if err != nil {
		return BackendRing{Error: err.Error()}
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return BackendRing{Error: fmt.Sprintf("backend answered %d", resp.StatusCode)}
	}
	var snap telemetry.RecorderSnapshot
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<20)).Decode(&snap); err != nil {
		return BackendRing{Error: "decoding snapshot: " + err.Error()}
	}
	return BackendRing{Snapshot: &snap}
}

// FleetIncidents returns the assembled bundles, oldest first.
func (f *Front) FleetIncidents() []FleetIncident {
	f.fleetMu.Lock()
	defer f.fleetMu.Unlock()
	return append([]FleetIncident(nil), f.fleet.Live()...)
}

// Drain gracefully stops the front door: admission closes (new
// requests get 503 + Retry-After), in-flight requests finish (the
// HTTP shutdown waits for them), the prober stops, and — when
// DrainBackends is set — every backend is quiesced in address order.
// Idempotent; every caller gets the same result.
func (f *Front) Drain(ctx context.Context) error {
	f.drainOnce.Do(func() {
		f.state.Store(int32(service.Draining))
		f.cfg.Logf("cluster: draining front door (%d in flight)", len(f.tokens))
		if f.srv != nil {
			shutCtx, cancel := context.WithTimeout(context.Background(), f.cfg.DrainTimeout)
			defer cancel()
			if err := f.srv.Shutdown(shutCtx); err != nil {
				f.drainErr = fmt.Errorf("cluster: http shutdown: %w", err)
			}
			<-f.httpDone
		}
		f.health.Stop()
		f.ops.Stop()
		if f.cfg.DrainBackends {
			f.drainBackends(ctx)
		}
		// Release pooled keep-alive conns so backend shutdowns that
		// outlive the front don't wait on our idle sockets.
		f.client.CloseIdleConnections()
		f.state.Store(int32(service.Stopped))
		f.cfg.Logf("cluster: front door stopped (served %d, failed %d, failovers %d, hedges %d)",
			f.stats.completed.Load(), f.stats.failed.Load(),
			f.stats.failovers.Load(), f.stats.hedges.Load())
		close(f.drained)
	})
	<-f.drained
	return f.drainErr
}

// drainBackends quiesces the fleet in address order: POST /drain to
// each backend, then wait for it to report stopped (or go away) before
// moving to the next — no thundering simultaneous shutdown.
func (f *Front) drainBackends(ctx context.Context) {
	backends := f.ring.Backends()
	sort.Strings(backends)
	for _, b := range backends {
		f.cfg.Logf("cluster: draining backend %s", b)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, "http://"+b+"/drain", nil)
		if err != nil {
			continue
		}
		if resp, derr := f.client.Do(req); derr != nil {
			f.cfg.Logf("cluster: backend %s drain request: %v (skipping)", b, derr)
			continue
		} else {
			resp.Body.Close()
		}
		deadline := time.Now().Add(f.cfg.DrainTimeout)
		for time.Now().Before(deadline) && ctx.Err() == nil {
			resp, herr := f.client.Get("http://" + b + "/healthz")
			if herr != nil {
				break // server gone: drained all the way down
			}
			var body struct {
				State string `json:"state"`
			}
			_ = json.NewDecoder(resp.Body).Decode(&body)
			resp.Body.Close()
			if body.State == service.Stopped.String() {
				break
			}
			time.Sleep(25 * time.Millisecond)
		}
		f.cfg.Logf("cluster: backend %s quiesced", b)
	}
}

// Close drains with the configured drain timeout.
func (f *Front) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), f.cfg.DrainTimeout+10*time.Second)
	defer cancel()
	return f.Drain(ctx)
}

// Drained reports whether the front door has fully stopped.
func (f *Front) Drained() <-chan struct{} { return f.drained }
