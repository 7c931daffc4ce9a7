// Package service turns the batch reproduction into a long-running,
// self-protecting prefetch-simulation server: a supervised engine that
// owns a sim.Runner, accepts simulation requests over a JSON HTTP API,
// and stays correct and available when dependencies misbehave under
// sustained load.
//
// The resilience layout (see DESIGN.md §9):
//
//   - admission: a bounded resilience.Queue sheds the newest arrivals
//     with 503 + Retry-After once full, and the readiness probe flips
//     to unready while the queue is saturated;
//   - execution: a pool of panic-recovering workers, restarted with
//     backoff by the supervisor, each bounding its run with the
//     request deadline (propagated through context into the
//     simulator's interrupt flag) and watched by a wedge watchdog;
//   - degradation: one circuit breaker per ensemble arm, fed by the
//     controller's accuracy-masking signal (internal/core) — an arm
//     that ends several consecutive runs masked is excluded from new
//     ensembles until its breaker half-opens and a probe run clears
//     it;
//   - observability: every decision surfaces through the telemetry
//     registry and the operator surface (telemetry.Surface) the
//     front door shares: /metrics, /stats, the metrics history and
//     the incident flight recorder.
//
// On the happy path the resilience layer is observation-only: a
// zero-fault soak produces telemetry window output byte-identical to
// the equivalent batch sim.Runner invocation (pinned by
// TestServiceHappyPathMatchesBatch).
package service

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"resemble/internal/cas"
	"resemble/internal/core"
	"resemble/internal/ensemble/sbp"
	"resemble/internal/prefetch"
	"resemble/internal/resilience"
	"resemble/internal/sim"
	"resemble/internal/sources"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// Config parameterizes a Service. The zero value listens on an
// ephemeral localhost port with sensible defaults.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// Workers is the simulation worker count (default 2).
	Workers int
	// QueueDepth bounds the admission queue (default 32).
	QueueDepth int
	// RequestTimeout bounds one simulation request end to end
	// (default 60s). The deadline propagates into the simulator via
	// its interrupt flag, so a timed-out run winds down instead of
	// simulating on unobserved.
	RequestTimeout time.Duration
	// DrainTimeout bounds the graceful drain (default 30s).
	DrainTimeout time.Duration
	// DefaultAccesses is the trace length when a request omits it
	// (default 20000); MaxAccesses is the admission cap (default 500k).
	DefaultAccesses int
	MaxAccesses     int

	// Store, when non-nil, is the durable artifact store: every run
	// periodically checkpoints into it (keyed by the run-request hash
	// and access cursor, see RunKey/CheckpointTag) and /v1/run accepts
	// resume_from to warm-start from a stored checkpoint. The store is
	// shared infrastructure — attaching it to the trace cache
	// (trace.Cache.AttachStore) is the owner's call, not the service's.
	Store *cas.Store
	// RunCheckpointEvery is the access-count period between run
	// checkpoints (default 5000 when Store is set). A run interrupted
	// by its deadline always writes one final checkpoint at the
	// interrupt cursor regardless of the period.
	RunCheckpointEvery int

	// Telemetry, when non-nil, instruments every simulation (window
	// snapshots, sampled events) and carries the service's registry
	// metrics. Nil disables instrumentation; the service still tracks
	// its own Stats. It also enables the observability extras below:
	// the metrics-history sampler and the incident flight recorder.
	Telemetry *telemetry.Collector
	// HistoryEvery, HistorySamples and IncidentMinInterval configure the
	// operator surface (see telemetry.SurfaceConfig). IncidentP99MS,
	// when positive, adds a p99-breach trigger checked at each history
	// tick against the request-latency histogram.
	HistoryEvery        time.Duration
	HistorySamples      int
	IncidentMinInterval time.Duration
	IncidentP99MS       float64
	// SimConfig overrides the simulation configuration (nil = default).
	SimConfig *sim.Config
	// Breaker parameterizes the per-arm circuit breakers.
	Breaker resilience.BreakerConfig
	// ControllerConfig, when non-nil, overrides the ensemble controller
	// configuration derived for a request (the default is the batch
	// experiment configuration plus the robustness fault-matrix masking
	// operating point). Tests and soak harnesses use it to shrink the
	// masking windows so degradation trips quickly.
	ControllerConfig func(Request) core.Config
	// Traces overrides the trace cache (nil = trace.Shared()).
	Traces *trace.Cache
	// Chaos, when non-nil, injects faults into the serving path — see
	// the Chaos type. Nil means no injection and no overhead.
	Chaos *Chaos
	// PprofAddr, when non-empty, serves the net/http/pprof handlers on
	// a separate listener (e.g. "127.0.0.1:0"); the server is shut down
	// on drain.
	PprofAddr string
	// Profile configures the capture manager (see ProfileConfig); the
	// zero value disables it.
	Profile ProfileConfig
	// Logf receives operational log lines (nil discards them unless
	// Logger is set, in which case they route through it at Info).
	Logf func(format string, args ...any)
	// Logger receives structured request/lifecycle logs carrying the
	// correlation IDs (admission seq, span ID) that also appear in the
	// span trace. Nil discards them.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = "127.0.0.1:0"
	}
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 32
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.DrainTimeout <= 0 {
		c.DrainTimeout = 30 * time.Second
	}
	if c.DefaultAccesses <= 0 {
		c.DefaultAccesses = 20000
	}
	if c.MaxAccesses <= 0 {
		c.MaxAccesses = 500000
	}
	if c.Store != nil && c.RunCheckpointEvery <= 0 {
		c.RunCheckpointEvery = 5000
	}
	if c.Traces == nil {
		c.Traces = trace.Shared()
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

// ArmNames lists the ensemble input prefetchers the service builds,
// in controller arm order — the breaker set is keyed by these names.
func ArmNames() []string { return sources.Arms() }

// armSet is one worker's ensemble arms, keyed by arm name, and the
// resemble-t and sbp-e controllers it holds over them. The worker
// builds an arm or controller on first use and resets it in place for
// every later request, so serving does not rebuild their tables per
// request. Only its worker touches it, one request at a time; a worker
// that panics drops it, and the replacement loop starts with an empty
// set. The nil set builds fresh arms and controllers (the BuildSource
// path).
type armSet struct {
	arms  map[string]prefetch.Prefetcher
	ctrls map[string]heldController
}

// heldController is a controller a worker holds over its arms, with
// the configuration it was built or last restarted under and the
// restart that returns it to its just-constructed state under a seed,
// leaving the arms alone.
type heldController struct {
	src     sim.Source
	cfg     core.Config
	restart func(seed int64)
}

// hold wraps src for holding, reporting whether it is a controller a
// worker can restart: resemble-t or sbp-e.
func hold(src sim.Source, cfg core.Config) (heldController, bool) {
	switch c := src.(type) {
	case *core.TabularController:
		return heldController{src: src, cfg: cfg, restart: c.Restart}, true
	case *sbp.Controller:
		return heldController{src: src, cfg: cfg, restart: func(int64) { c.Restart() }}, true
	}
	return heldController{}, false
}

func newArmSet() *armSet {
	return &armSet{arms: map[string]prefetch.Prefetcher{}, ctrls: map[string]heldController{}}
}

// arm returns the named arm in its just-constructed state.
func (a *armSet) arm(name string) (prefetch.Prefetcher, error) {
	if a == nil {
		return sources.New(name)
	}
	if p := a.arms[name]; p != nil {
		p.Reset()
		return p, nil
	}
	p, err := sources.New(name)
	if err == nil {
		a.arms[name] = p
	}
	return p, err
}

// controller returns the named ensemble controller over inputs under
// cfg in its just-constructed state. A held controller is restarted
// only when inputs are the set's own arms in arm order (every breaker
// admits and no chaos wraps them), which arm has already reset, and
// cfg differs from its own at most in the seed; otherwise build makes
// a new one, which the set holds when it can restart it later.
func (a *armSet) controller(name string, cfg core.Config, inputs []prefetch.Prefetcher, build func() sim.Source) sim.Source {
	if a == nil || !a.holds(inputs) {
		return build()
	}
	if h, ok := a.ctrls[name]; ok {
		h.cfg.Seed = cfg.Seed
		if h.cfg == cfg {
			h.restart(cfg.Seed)
			return h.src
		}
	}
	src := build()
	if h, ok := hold(src, cfg); ok {
		a.ctrls[name] = h
	}
	return src
}

// holds reports whether inputs are exactly the set's arms in arm order.
func (a *armSet) holds(inputs []prefetch.Prefetcher) bool {
	names := ArmNames()
	if len(inputs) != len(names) {
		return false
	}
	for i, name := range names {
		if inputs[i] != a.arms[name] {
			return false
		}
	}
	return true
}

// Controllers lists the accepted request controllers: the ensemble
// controllers, the individual arms, and "none" (baseline).
func Controllers() []string {
	return append([]string{"resemble", "resemble-t", "sbp-e", "none"}, ArmNames()...)
}

// maskProbe is the slice of the controller API the breaker feedback
// uses; both core controllers implement it.
type maskProbe interface {
	ArmMasked(i int) bool
	MaskedArms() int
}

// State is the service lifecycle position.
type State int32

// Lifecycle: Starting (constructed, not yet serving), Ready
// (admitting), Draining (rejecting new work, finishing queued work),
// Stopped (work and loops finished; published before the HTTP front
// shuts down, so a peer refused a connection always reads Stopped).
const (
	Starting State = iota
	Ready
	Draining
	Stopped
)

func (s State) String() string {
	switch s {
	case Starting:
		return "starting"
	case Ready:
		return "ready"
	case Draining:
		return "draining"
	case Stopped:
		return "stopped"
	default:
		return "unknown"
	}
}

// Service is the resilient prefetch-simulation daemon engine.
type Service struct {
	cfg    Config
	runner *sim.Runner

	state atomic.Int32

	queue    *resilience.Queue[*task]
	breakers map[string]*resilience.Breaker

	ln  net.Listener
	srv *http.Server

	// unused lets the HTTP shutdown close connections that never
	// carried a request, which would otherwise hold the drain.
	unused resilience.UnusedConns

	pprofAddr string       // bound pprof listen address (empty when off)
	pprofSrv  *http.Server // shut down on drain

	profiles *captureManager // nil when ProfileConfig is disabled

	// ops is the operator surface shared with the front door: the
	// nine debug routes, the metrics-history sampler and the incident
	// flight recorder (ops.Recorder, nil-safe without telemetry).
	ops *telemetry.Surface

	// admitMu serializes admission so queue order equals telemetry
	// commit order.
	admitMu sync.Mutex
	nextSeq uint64
	commits committer

	workers  sync.WaitGroup // worker goroutines
	loops    sync.WaitGroup // watchdog, profile monitor
	httpDone chan struct{}  // closed when the http server goroutine exits
	stopCh   chan struct{}  // closed on drain to stop the background loops

	busy []workerStatus // per-worker heartbeat slots

	stats serviceCounters

	aborted atomic.Bool // Abort severed the HTTP front (chaos harness)

	drainOnce sync.Once
	drainErr  error
	drained   chan struct{} // closed when drain completes

	// metric handles (nil-safe when telemetry is off)
	mBreaker map[string]*telemetry.Gauge
	// hLatency tracks end-to-end request latency in milliseconds; the
	// capture manager's p99 auto-trigger reads it.
	hLatency *telemetry.Histogram
}

// serviceCounters is the service's own always-on accounting (the
// telemetry registry mirrors it when instrumentation is enabled).
type serviceCounters struct {
	admitted, completed, shed, rejected atomic.Uint64
	failed, timedOut                    atomic.Uint64
	panics, restarts, wedged            atomic.Uint64
	maskedRuns                          atomic.Uint64

	// Artifact-store run-checkpoint accounting (zero without a Store).
	runCkpWrites, runCkpFailures atomic.Uint64
	resumes, resumeFallbacks     atomic.Uint64
}

// workerStatus is one worker's heartbeat slot for the watchdog.
type workerStatus struct {
	busySince atomic.Int64 // unix nanos; 0 = idle
	reported  atomic.Bool  // wedge already counted for this task
	label     atomic.Value // string: request being served
}

// Stats is a point-in-time snapshot of the service counters.
type Stats struct {
	State         string `json:"state"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
	Admitted      uint64 `json:"requests_admitted"`
	Completed     uint64 `json:"requests_completed"`
	Shed          uint64 `json:"requests_shed"`
	Rejected      uint64 `json:"requests_rejected"`
	Failed        uint64 `json:"requests_failed"`
	TimedOut      uint64 `json:"requests_timed_out"`
	Panics        uint64 `json:"worker_panics"`
	Restarts      uint64 `json:"worker_restarts"`
	Wedged        uint64 `json:"tasks_wedged"`
	MaskedRuns    uint64 `json:"runs_with_masked_arms"`
	// Run-checkpoint accounting against the artifact store: durable
	// snapshots written mid-run, runs warm-started from a snapshot, and
	// requested resumes that fell back to a scratch run because the
	// snapshot was missing, corrupt or for a different run.
	RunCkpWrites    uint64            `json:"run_checkpoint_writes"`
	RunCkpFailures  uint64            `json:"run_checkpoint_failures"`
	Resumes         uint64            `json:"runs_resumed"`
	ResumeFallbacks uint64            `json:"resume_fallbacks"`
	Breakers        map[string]string `json:"breakers"`
	BreakerTrips    map[string]uint64 `json:"breaker_trips"`
}

// New validates the configuration and builds a stopped service; Start
// makes it listen and admit.
func New(cfg Config) (*Service, error) {
	cfg = cfg.withDefaults()
	simCfg := sim.DefaultConfig()
	if cfg.SimConfig != nil {
		simCfg = *cfg.SimConfig
	}
	s := &Service{
		cfg:      cfg,
		breakers: make(map[string]*resilience.Breaker),
		httpDone: make(chan struct{}),
		stopCh:   make(chan struct{}),
		drained:  make(chan struct{}),
		busy:     make([]workerStatus, cfg.Workers),
		mBreaker: make(map[string]*telemetry.Gauge),
	}
	s.runner = sim.NewRunner(simCfg, sim.WithTelemetry(cfg.Telemetry))
	reg := cfg.Telemetry.Registry()
	s.hLatency = reg.Histogram("service.request.latency.ms")
	if s.hLatency == nil {
		// No telemetry registry: keep a standalone histogram so the
		// capture manager's p99 trigger still has a signal.
		s.hLatency = &telemetry.Histogram{}
	}
	if cfg.Profile.enabled() {
		s.profiles = newCaptureManager(cfg.Profile, cfg.Logf, reg.Counter("service.profile.captures"))
	}
	s.ops = telemetry.NewSurface(cfg.Telemetry, s.surfaceConfig())
	for _, arm := range ArmNames() {
		arm := arm
		bcfg := cfg.Breaker
		gauge := reg.Gauge("service.breaker.state." + arm)
		s.mBreaker[arm] = gauge
		trips := reg.Counter("service.breaker.trips." + arm)
		prev := bcfg.OnTransition
		bcfg.OnTransition = func(from, to resilience.BreakerState) {
			gauge.Set(float64(to))
			if to == resilience.Open {
				trips.Inc()
				s.ops.Recorder.Trigger("breaker.trip", arm)
			} else {
				s.ops.Recorder.Note("breaker."+to.String(), arm)
			}
			s.cfg.Logf("service: breaker %s: %s -> %s", arm, from, to)
			if prev != nil {
				prev(from, to)
			}
		}
		s.breakers[arm] = resilience.NewBreaker(bcfg)
	}
	s.queue = resilience.NewQueue[*task](cfg.QueueDepth)
	s.commits.parent = cfg.Telemetry
	s.commits.parked = make(map[uint64]*telemetry.Collector)
	return s, nil
}

// Addr returns the bound listen address (empty before Start).
func (s *Service) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// State returns the lifecycle position.
func (s *Service) State() State { return State(s.state.Load()) }

// PprofAddr returns the bound pprof listen address (empty when
// Config.PprofAddr is unset or before Start).
func (s *Service) PprofAddr() string { return s.pprofAddr }

// Breaker returns the named arm's breaker (nil when unknown) — used
// by the in-process soak assertions.
func (s *Service) Breaker(arm string) *resilience.Breaker { return s.breakers[arm] }

// ready mirrors the /readyz decision: admitting and not saturated.
func (s *Service) ready() bool {
	return s.State() == Ready && !s.queue.Saturated()
}

// overlay writes the service's own authoritative counters and its
// queue and breaker gauges over the exposition snapshot. They override
// the registry mirrors of the same names, so /metrics is correct even
// when instrumentation is disabled.
func (s *Service) overlay(snap *telemetry.RegistrySnapshot) {
	st := s.Stats()
	snap.Counters["service.requests.admitted"] = st.Admitted
	snap.Counters["service.requests.completed"] = st.Completed
	snap.Counters["service.requests.shed"] = st.Shed
	snap.Counters["service.requests.rejected"] = st.Rejected
	snap.Counters["service.requests.failed"] = st.Failed
	snap.Counters["service.requests.timeout"] = st.TimedOut
	snap.Counters["service.workers.panics"] = st.Panics
	snap.Counters["service.workers.restarts"] = st.Restarts
	snap.Counters["service.workers.wedged"] = st.Wedged
	snap.Counters["service.runs.masked"] = st.MaskedRuns
	snap.Counters["service.run.checkpoint.writes"] = st.RunCkpWrites
	snap.Counters["service.run.checkpoint.failures"] = st.RunCkpFailures
	snap.Counters["service.runs.resumed"] = st.Resumes
	snap.Counters["service.runs.resume_fallback"] = st.ResumeFallbacks
	snap.Gauges["service.queue.depth"] = float64(st.QueueDepth)
	snap.Gauges["service.queue.capacity"] = float64(st.QueueCapacity)
	snap.Gauges["service.state"] = float64(s.state.Load())
	ready := 0.0
	if s.ready() {
		ready = 1
	}
	snap.Gauges["service.ready"] = ready
	// Per-phase allocation attribution (empty unless the collector runs
	// with Config.AllocAttribution): one counter triple per phase,
	// folded into labeled families by the /metrics relabel rules.
	for _, pa := range s.cfg.Telemetry.PhaseAllocs() {
		snap.Counters["phase.allocs.count."+pa.Phase] = pa.Count
		snap.Counters["phase.allocs.bytes."+pa.Phase] = pa.AllocBytes
		snap.Counters["phase.allocs.objects."+pa.Phase] = pa.AllocObjects
	}
	if s.profiles != nil {
		snap.Counters["service.profile.captures"] = uint64(s.profiles.Count())
	}
	for name, b := range s.breakers {
		snap.Gauges["service.breaker.state."+name] = float64(b.State())
		snap.Counters["service.breaker.trips."+name] = b.Trips()
	}
}

// Stats snapshots the service counters.
func (s *Service) Stats() Stats {
	st := Stats{
		State:           s.State().String(),
		QueueDepth:      s.queue.Depth(),
		QueueCapacity:   s.queue.Capacity(),
		Admitted:        s.stats.admitted.Load(),
		Completed:       s.stats.completed.Load(),
		Shed:            s.stats.shed.Load(),
		Rejected:        s.stats.rejected.Load(),
		Failed:          s.stats.failed.Load(),
		TimedOut:        s.stats.timedOut.Load(),
		Panics:          s.stats.panics.Load(),
		Restarts:        s.stats.restarts.Load(),
		Wedged:          s.stats.wedged.Load(),
		MaskedRuns:      s.stats.maskedRuns.Load(),
		RunCkpWrites:    s.stats.runCkpWrites.Load(),
		RunCkpFailures:  s.stats.runCkpFailures.Load(),
		Resumes:         s.stats.resumes.Load(),
		ResumeFallbacks: s.stats.resumeFallbacks.Load(),
		Breakers:        map[string]string{},
		BreakerTrips:    map[string]uint64{},
	}
	for name, b := range s.breakers {
		st.Breakers[name] = b.State().String()
		st.BreakerTrips[name] = b.Trips()
	}
	return st
}

// Start binds the listener and launches the workers, the supervisor
// loops and the HTTP server. It returns once the service is ready.
func (s *Service) Start() error {
	if !s.state.CompareAndSwap(int32(Starting), int32(Ready)) {
		return fmt.Errorf("service: already started")
	}
	ln, err := net.Listen("tcp", s.cfg.Addr)
	if err != nil {
		return fmt.Errorf("service: %w", err)
	}
	if s.cfg.PprofAddr != "" {
		addr, psrv, perr := telemetry.ServePprof(s.cfg.PprofAddr)
		if perr != nil {
			ln.Close()
			return fmt.Errorf("service: pprof: %w", perr)
		}
		s.pprofAddr, s.pprofSrv = addr, psrv
		s.cfg.Logf("service: pprof on %s", addr)
	}
	s.ln = ln
	s.ops.Start(s.Addr())
	s.srv = &http.Server{Handler: s.Handler(), ReadHeaderTimeout: 10 * time.Second}
	s.unused.Install(s.srv)
	go func() {
		defer close(s.httpDone)
		// http.ErrServerClosed is the normal shutdown path.
		if serr := s.srv.Serve(ln); serr != nil && serr != http.ErrServerClosed {
			s.cfg.Logf("service: http server: %v", serr)
		}
	}()
	for i := 0; i < s.cfg.Workers; i++ {
		s.startWorker(i)
	}
	s.loops.Add(1)
	go s.watchdog()
	if s.profiles != nil && s.profiles.cfg.autoEnabled() {
		s.loops.Add(1)
		go s.profileLoop()
	}
	s.cfg.Logf("service: ready on %s (%d workers, queue %d)",
		s.Addr(), s.cfg.Workers, s.cfg.QueueDepth)
	return nil
}

// Drain gracefully stops the service: admission closes (new requests
// get 503 + Retry-After), queued and in-flight work completes, the
// background loops stop, the state turns Stopped, and then the HTTP
// server shuts down. Idempotent; every caller gets the same result,
// once Drained has closed.
func (s *Service) Drain(ctx context.Context) error {
	s.drainOnce.Do(func() {
		s.state.Store(int32(Draining))
		s.cfg.Logf("service: draining (queue depth %d)", s.queue.Depth())
		s.queue.Close()
		close(s.stopCh)

		done := make(chan struct{})
		go func() {
			s.workers.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-ctx.Done():
			s.drainErr = fmt.Errorf("service: drain aborted: %w", ctx.Err())
		case <-time.After(s.cfg.DrainTimeout):
			s.drainErr = fmt.Errorf("service: drain timed out after %s", s.cfg.DrainTimeout)
		}
		s.loops.Wait()
		s.ops.Stop()

		// Stopped goes out before the HTTP shutdown closes the listener:
		// a peer refused a connection (the front door's ordered drain
		// reads that as "gone") must never find the state still Draining.
		s.state.Store(int32(Stopped))
		if s.srv != nil {
			if s.aborted.Load() {
				// Abort already closed the server; Serve has returned.
				<-s.httpDone
			} else {
				shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
				defer cancel()
				if err := s.srv.Shutdown(shutCtx); err != nil && s.drainErr == nil {
					s.drainErr = fmt.Errorf("service: http shutdown: %w", err)
				}
				<-s.httpDone
			}
		}
		if s.pprofSrv != nil {
			shutCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			if err := s.pprofSrv.Shutdown(shutCtx); err != nil && s.drainErr == nil {
				s.drainErr = fmt.Errorf("service: pprof shutdown: %w", err)
			}
		}
		s.cfg.Logf("service: stopped (served %d, shed %d, failed %d)",
			s.stats.completed.Load(), s.stats.shed.Load(), s.stats.failed.Load())
		close(s.drained)
	})
	<-s.drained
	return s.drainErr
}

// Abort severs the service's HTTP front immediately — the listener
// and every established connection close mid-flight, with no drain
// and no goodbye. From a remote peer's point of view this is
// indistinguishable from a SIGKILL: in-flight requests die with a
// connection error and new connects are refused. The engine behind
// the front (workers, queue, loops) keeps running; the cluster chaos
// harness uses Abort to simulate losing a backend and later calls
// Close to reap the carcass without tripping the goroutine-leak audit.
func (s *Service) Abort() {
	if s.srv == nil || !s.aborted.CompareAndSwap(false, true) {
		return
	}
	s.cfg.Logf("service: ABORT: http front severed (simulated kill)")
	_ = s.srv.Close()
}

// Close drains with the configured drain timeout.
func (s *Service) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), s.cfg.DrainTimeout+10*time.Second)
	defer cancel()
	return s.Drain(ctx)
}

// Drained reports whether the service has fully stopped.
func (s *Service) Drained() <-chan struct{} { return s.drained }

// counter returns a registry counter handle (nil-safe when telemetry
// is disabled).
func (s *Service) counter(name string) *telemetry.Counter {
	return s.cfg.Telemetry.Registry().Counter(name)
}
