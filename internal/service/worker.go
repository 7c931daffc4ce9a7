package service

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"resemble/internal/cas"
	"resemble/internal/core"
	"resemble/internal/prefetch"
	"resemble/internal/resilience"
	"resemble/internal/sim"
	"resemble/internal/sources"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// task is one admitted simulation request moving through the queue.
type task struct {
	seq    uint64
	req    Request
	ctx    context.Context
	cancel context.CancelFunc
	span   *telemetry.Span // request span (nil when telemetry is off)
	// admitSpan is retained so its finished record can ship in the
	// response when the request asks for spans.
	admitSpan *telemetry.Span

	done   chan struct{} // closed when resp/status are final
	resp   Response
	status int
}

// finish seals the task's outcome; first caller wins.
func (t *task) finish(status int, resp Response) {
	t.resp = resp
	t.status = status
	close(t.done)
}

// committer merges per-task telemetry children back into the parent
// collector in admission-sequence order, parking out-of-order
// arrivals, so concurrent workers produce the exact window stream a
// serial execution of the same admissions would have.
type committer struct {
	mu     sync.Mutex
	parent *telemetry.Collector
	next   uint64
	parked map[uint64]*telemetry.Collector
}

// commit hands in seq's child (nil for a failed task — the slot still
// advances) and flushes every consecutively-ready child.
func (c *committer) commit(seq uint64, ch *telemetry.Collector) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.parked[seq] = ch
	for {
		next, ok := c.parked[c.next]
		if !ok {
			return
		}
		delete(c.parked, c.next)
		c.parent.Merge(next) // nil-safe both ways
		c.next++
	}
}

// supervision backoff for crashed workers.
var restartBackoff = resilience.Backoff{Base: 50 * time.Millisecond, Max: 2 * time.Second, Jitter: -1}

// wedgeGrace is how far past the request timeout a busy worker may run
// before the watchdog calls it wedged.
const wedgeGrace = 5 * time.Second

// startWorker launches worker i under supervision.
func (s *Service) startWorker(i int) {
	s.workers.Add(1)
	go s.workerLoop(i, 0)
}

// workerLoop pops and serves tasks until the queue closes and drains.
// A panic escaping a task is the supervision path: the task has
// already been answered (see serve's recover), the loop logs the
// crash and a replacement loop starts after a backoff delay — the
// drain WaitGroup slot transfers to the replacement. The loop owns the
// worker's arm set; a crash drops it with the loop, so the replacement
// never reuses arms a panic may have left half-updated.
func (s *Service) workerLoop(i, crashes int) {
	defer func() {
		r := recover()
		if r == nil {
			s.workers.Done()
			return
		}
		s.stats.restarts.Add(1)
		s.counter("service.workers.restarts").Inc()
		delay := restartBackoff.Delay(crashes + 1)
		s.cfg.Logf("service: worker %d crashed (%v); restarting in %s", i, r, delay)
		s.ops.Recorder.Trigger("panic.restart", fmt.Sprintf("worker %d: %v", i, r))
		go func() {
			t := time.NewTimer(delay)
			defer t.Stop()
			select {
			case <-t.C:
			case <-s.stopCh:
				// Draining: skip the delay so the drain isn't held
				// hostage by the restart backoff. The replacement loop
				// still runs to drain any queued tasks.
			}
			s.workerLoop(i, crashes+1)
		}()
	}()
	arms := newArmSet()
	for {
		t, ok := s.queue.Pop(context.Background())
		if !ok {
			return // closed and fully drained
		}
		s.serve(i, t, arms)
		crashes = 0
	}
}

// watchdog periodically scans the worker heartbeat slots for tasks
// running far past the request deadline (a wedged simulation that is
// not honoring its interrupt flag) and surfaces them as metrics.
func (s *Service) watchdog() {
	defer s.loops.Done()
	period := s.cfg.RequestTimeout / 4
	if period < 50*time.Millisecond {
		period = 50 * time.Millisecond
	}
	if period > 5*time.Second {
		period = 5 * time.Second
	}
	tick := time.NewTicker(period)
	defer tick.Stop()
	for {
		select {
		case <-tick.C:
			limit := s.cfg.RequestTimeout + wedgeGrace
			for i := range s.busy {
				since := s.busy[i].busySince.Load()
				if since == 0 || time.Since(time.Unix(0, since)) < limit {
					continue
				}
				if s.busy[i].reported.CompareAndSwap(false, true) {
					s.stats.wedged.Add(1)
					s.counter("service.workers.wedged").Inc()
					label, _ := s.busy[i].label.Load().(string)
					s.cfg.Logf("service: worker %d wedged on %q for > %s", i, label, limit)
					s.ops.Recorder.Note("wedge", fmt.Sprintf("worker %d on %q", i, label))
				}
			}
		case <-s.stopCh:
			return
		}
	}
}

// serve runs one admitted task end to end on the worker's arms.
// Panics are answered as 500 and then re-raised so the supervision
// layer restarts the worker.
func (s *Service) serve(i int, t *task, arms *armSet) {
	began := time.Now()
	wsp := t.span.Child("worker.serve")
	defer func() {
		wsp.End()
		t.span.End()
		s.hLatency.Observe(float64(time.Since(began)) / float64(time.Millisecond))
		s.cfg.Logger.Info("request served",
			"seq", t.seq,
			"span", fmt.Sprintf("%016x", uint64(t.span.Ref().ID)),
			"workload", t.req.Workload,
			"controller", t.req.Controller,
			"status", t.status,
			"worker", i,
			"dur_ms", float64(time.Since(began))/float64(time.Millisecond))
	}()
	slot := &s.busy[i]
	slot.label.Store(t.req.Workload + "/" + t.req.Controller)
	slot.busySince.Store(time.Now().UnixNano())
	defer func() {
		slot.busySince.Store(0)
		slot.reported.Store(false)
		t.cancel()
		if r := recover(); r != nil {
			s.stats.panics.Add(1)
			s.counter("service.workers.panics").Inc()
			s.stats.failed.Add(1)
			s.counter("service.requests.failed").Inc()
			s.commits.commit(t.seq, nil)
			t.finish(http.StatusInternalServerError,
				Response{Error: fmt.Sprintf("internal error: simulation panicked: %v", r)})
			panic(r) // hand the crash to the supervisor
		}
	}()

	if err := t.ctx.Err(); err != nil {
		// Expired while queued: the deadline propagated, don't burn a
		// worker on work nobody is waiting for.
		s.timeout(t)
		return
	}
	s.cfg.Chaos.slow(t.ctx)

	resp, status, err := s.simulate(t, arms)
	switch {
	case err == nil:
		s.stats.completed.Add(1)
		s.counter("service.requests.completed").Inc()
		// Seal the service-level spans before the response ships, so a
		// caller that reads the trace or /metrics once it has its reply
		// sees the whole request → admission → worker.serve tree, and a
		// coordinator's stitched trace carries it too. End is
		// idempotent; the deferred Ends above become no-ops.
		wsp.End()
		t.span.End()
		if t.req.ReturnSpans {
			resp.Spans = appendSpanRecords(resp.Spans, t.admitSpan, wsp, t.span)
		}
		t.finish(status, resp)
	case errors.Is(err, sim.ErrInterrupted) || errors.Is(err, context.DeadlineExceeded):
		s.timeout(t)
	default:
		s.stats.failed.Add(1)
		s.counter("service.requests.failed").Inc()
		s.commits.commit(t.seq, nil)
		t.finish(status, Response{Error: err.Error()})
	}
}

// timeout answers a deadline-expired task.
func (s *Service) timeout(t *task) {
	s.stats.timedOut.Add(1)
	s.counter("service.requests.timeout").Inc()
	s.commits.commit(t.seq, nil)
	t.finish(http.StatusGatewayTimeout,
		Response{Error: fmt.Sprintf("deadline exceeded after %s", s.cfg.RequestTimeout)})
}

// simulate builds the trace and source for the request from the
// worker's arms and runs it on an isolated telemetry child, reporting
// arm health to the breakers. The returned status accompanies a
// non-nil error.
func (s *Service) simulate(t *task, arms *armSet) (Response, int, error) {
	if s.cfg.Chaos.shouldPanic() {
		panic("chaos: injected worker panic")
	}
	req := t.req
	w, err := trace.Lookup(req.Workload)
	if err != nil {
		return Response{}, http.StatusBadRequest, err
	}
	tr := s.cfg.Traces.Get(w, req.Accesses, w.Seed+req.Seed)
	tr = s.cfg.Chaos.wrapTrace(tr)

	src, probe, armIdx, excluded, err := s.buildSourceFrom(req, arms)
	if err != nil {
		var unavail errUnavailable
		if errors.As(err, &unavail) {
			return Response{}, http.StatusServiceUnavailable, err
		}
		return Response{}, http.StatusBadRequest, err
	}

	// Bridge the context deadline into the simulator's interrupt flag:
	// when the deadline (or a client disconnect) fires, the run winds
	// down at the next record instead of simulating on unobserved.
	var stop atomic.Bool
	defer context.AfterFunc(t.ctx, func() { stop.Store(true) })()
	if t.ctx.Err() != nil {
		// Already expired (e.g. the deadline passed while queued or
		// stalled): AfterFunc only schedules its callback on a new
		// goroutine, which a short CPU-bound run on GOMAXPROCS=1 can
		// finish ahead of. Seed the flag synchronously so the run
		// interrupts at its first record.
		stop.Store(true)
	}

	// Durable run checkpoints: with a store attached, the run snapshots
	// into it periodically and at interrupt, tagged by the run-identity
	// hash, so a coordinator can resume the run on another backend.
	// Sources that cannot snapshot (not every controller implements
	// checkpoint.Stater) run without durability rather than failing.
	store := s.cfg.Store
	canCkp := sim.CanCheckpoint(src)
	var key, lastCkpID string
	var storeOpts []sim.Option
	if store != nil && canCkp {
		key = RunKey(req)
		sink := func(blob []byte, cursor int) error {
			id, perr := store.PutTagged(cas.KindCheckpoint, blob,
				CheckpointTag(key, cursor), CheckpointLatestTag(key))
			if perr != nil {
				// Durability degrades; run correctness is unaffected.
				s.stats.runCkpFailures.Add(1)
				s.counter("service.run.checkpoint.failures").Inc()
				s.cfg.Logf("service: run checkpoint (run %.12s…, cursor %d): %v", key, cursor, perr)
				return nil
			}
			lastCkpID = id.String()
			s.stats.runCkpWrites.Add(1)
			s.counter("service.run.checkpoint.writes").Inc()
			return nil
		}
		storeOpts = []sim.Option{
			sim.WithCheckpointScope(key),
			sim.WithCheckpointSink(s.cfg.RunCheckpointEvery, sink),
		}
	}
	resumedFrom := ""
	var resumeOpts []sim.Option
	if store != nil && req.ResumeFrom != "" {
		if !canCkp {
			s.noteResumeFallback(req.ResumeFrom,
				fmt.Errorf("source %q does not support checkpointing", req.Controller))
		} else if blob := s.fetchResume(store, req.ResumeFrom); blob != nil {
			resumeOpts = []sim.Option{sim.WithResumeBlob(blob)}
			resumedFrom = req.ResumeFrom
		}
	}

	// The run's spans record on the isolated child collector but parent
	// under the request span (cross-collector SpanRef), so the merged
	// trace reads request → admission → worker.serve → sim.run → ….
	baseOpts := func(child *telemetry.Collector) []sim.Option {
		opts := []sim.Option{sim.WithTelemetry(child), sim.WithInterrupt(&stop),
			sim.WithSpanParent(t.span.Ref())}
		return append(opts, storeOpts...)
	}
	child := s.cfg.Telemetry.Child()
	runner := s.runner.With(append(baseOpts(child), resumeOpts...)...)
	began := time.Now()
	res, err := runner.Run(tr, src)
	if errors.Is(err, sim.ErrBadResume) {
		// The snapshot was unusable (corrupt container, or a scope for a
		// different run). After ErrBadResume the source and collector
		// state is unspecified, so rebuild both (resetting the arms)
		// and run from scratch — the determinism contract makes that
		// merely slower, never wrong.
		s.noteResumeFallback(resumedFrom, err)
		resumedFrom = ""
		src, probe, armIdx, excluded, err = s.buildSourceFrom(req, arms)
		if err != nil {
			var unavail errUnavailable
			if errors.As(err, &unavail) {
				return Response{}, http.StatusServiceUnavailable, err
			}
			return Response{}, http.StatusBadRequest, err
		}
		child = s.cfg.Telemetry.Child()
		runner = s.runner.With(baseOpts(child)...)
		began = time.Now()
		res, err = runner.Run(tr, src)
	}
	if err != nil {
		// Breakers learn nothing from an aborted run; the child's
		// partial windows are discarded so the merged stream only ever
		// contains completed runs. An interrupted run's last durable
		// checkpoint stays tagged in the store for the failover retry.
		return Response{}, http.StatusInternalServerError, err
	}
	if resumedFrom != "" {
		s.stats.resumes.Add(1)
		s.counter("service.runs.resumed").Inc()
	}
	if store != nil && canCkp {
		// The run completed: its checkpoints have served their purpose.
		// Drop its tags and the blobs only they rooted, so the store
		// holds only checkpoints of in-flight (or interrupted) runs and
		// whatever else other callers stored.
		if _, _, derr := store.DropPrefix(CheckpointTagPrefix(key)); derr != nil {
			s.cfg.Logf("service: dropping checkpoints of run %.12s…: %v", key, derr)
		}
	}

	masked := s.reportArms(probe, armIdx)
	if len(masked) > 0 {
		s.stats.maskedRuns.Add(1)
		s.counter("service.runs.masked").Inc()
	}
	s.commits.commit(t.seq, child)
	// Merge leaves the child's window slice intact, so the shipped
	// windows are exactly the stream just committed to the parent.
	var windows []telemetry.WindowSnapshot
	if req.ReturnWindows {
		windows = child.Windows()
	}
	// Likewise the child's spans: the run tree (sim.run and below),
	// already parented under the request span via the cross-collector
	// ref. serve appends the service-level spans before the response
	// ships.
	var spans []telemetry.SpanRecord
	if req.ReturnSpans {
		spans = child.Spans()
	}

	return Response{
		Workload:          res.Workload,
		Controller:        req.Controller,
		Accesses:          len(tr.Records),
		Seed:              req.Seed,
		IPC:               res.IPC,
		MPKI:              res.MPKI,
		Accuracy:          res.Accuracy,
		Coverage:          res.Coverage,
		Instructions:      res.Instructions,
		LLCMisses:         res.LLCMisses,
		PrefetchesIssued:  res.PrefetchesIssued,
		UsefulPrefetches:  res.UsefulPrefetches,
		DroppedPrefetches: res.DroppedPrefetches,
		ExcludedArms:      excluded,
		MaskedArms:        masked,
		DurationMS:        float64(time.Since(began)) / float64(time.Millisecond),
		Windows:           windows,
		Spans:             spans,
		CheckpointID:      lastCkpID,
		ResumedFrom:       resumedFrom,
	}, http.StatusOK, nil
}

// appendSpanRecords appends the finished records of the given span
// handles (skipping nil or still-open ones).
func appendSpanRecords(dst []telemetry.SpanRecord, spans ...*telemetry.Span) []telemetry.SpanRecord {
	for _, sp := range spans {
		if rec, ok := sp.Record(); ok {
			dst = append(dst, rec)
		}
	}
	return dst
}

// fetchResume pulls a requested resume checkpoint out of the store.
// nil means the run starts from scratch instead: a missing, corrupt or
// wrong-kind blob is a degraded warm start, not a request failure (the
// HTTP layer already rejected malformed IDs with 400).
func (s *Service) fetchResume(store *cas.Store, from string) []byte {
	id, err := cas.ParseID(from)
	if err != nil {
		s.noteResumeFallback(from, err)
		return nil
	}
	blob, kind, err := store.Get(id)
	if err != nil {
		s.noteResumeFallback(from, err)
		return nil
	}
	if kind != cas.KindCheckpoint {
		s.noteResumeFallback(from, fmt.Errorf("artifact %s is a %s, not a checkpoint", from, kind))
		return nil
	}
	return blob
}

// noteResumeFallback accounts one requested resume that degraded to a
// scratch run.
func (s *Service) noteResumeFallback(from string, err error) {
	s.stats.resumeFallbacks.Add(1)
	s.counter("service.runs.resume_fallback").Inc()
	s.cfg.Logf("service: resume from %.12s… fell back to scratch: %v", from, err)
}

// BuildSource builds the prefetch source the service would simulate
// for req, through the same breaker admission as the serving path
// (nil source for the "none" baseline). Its arms are always freshly
// built, never a worker's, so it stays an independent reference for
// the serving path. A never-started Service with identical
// configuration serves as the batch reference: its breakers are all
// closed, so construction matches a serial sim.Runner setup
// (perfbench builds its batch runs this way).
func (s *Service) BuildSource(req Request) (sim.Source, []string, error) {
	src, _, _, excluded, err := s.buildSource(req)
	return src, excluded, err
}

// errUnavailable marks a request that cannot be served right now (all
// its arms' breakers are open) as distinct from a malformed one.
type errUnavailable struct{ msg string }

func (e errUnavailable) Error() string { return e.msg }

// buildSource constructs the request's prefetch source from fresh
// arms.
func (s *Service) buildSource(req Request) (src sim.Source, probe maskProbe, armIdx []string, excluded []string, err error) {
	return s.buildSourceFrom(req, nil)
}

// buildSourceFrom constructs the request's prefetch source from arms,
// excluding ensemble arms whose breakers refuse admission. The
// returned armIdx maps the built source's arm positions back to arm
// names so the end-of-run masking report reaches the right breaker;
// probe is nil for sources without a masking signal.
func (s *Service) buildSourceFrom(req Request, arms *armSet) (src sim.Source, probe maskProbe, armIdx []string, excluded []string, err error) {
	cfg := s.controllerConfig(req)
	src, err = sources.Build(req.Controller, sources.Env{
		Config: cfg,
		// A solo arm runs only while its breaker admits it.
		Arm: func(name string) (prefetch.Prefetcher, error) {
			b := s.breakers[name]
			if b == nil {
				return nil, fmt.Errorf("unknown controller %q (want one of %v)", name, Controllers())
			}
			if !b.Allow() {
				return nil, errUnavailable{fmt.Sprintf("arm %q circuit breaker is open", name)}
			}
			p, err := arms.arm(name)
			if err != nil {
				return nil, err
			}
			armIdx = []string{name}
			return s.cfg.Chaos.wrapArm(name, p), nil
		},
		// An ensemble takes every arm whose breaker admits it.
		Inputs: func() ([]prefetch.Prefetcher, error) {
			var inputs []prefetch.Prefetcher
			for _, name := range ArmNames() {
				if !s.breakers[name].Allow() {
					excluded = append(excluded, name)
					continue
				}
				p, err := arms.arm(name)
				if err != nil {
					return nil, err
				}
				inputs = append(inputs, s.cfg.Chaos.wrapArm(name, p))
				armIdx = append(armIdx, name)
			}
			if len(inputs) == 0 {
				return nil, errUnavailable{"all ensemble arms' circuit breakers are open"}
			}
			return inputs, nil
		},
		Ensemble: func(name string, inputs []prefetch.Prefetcher, build func() sim.Source) sim.Source {
			return arms.controller(name, cfg, inputs, build)
		},
	})
	if err != nil {
		return nil, nil, nil, nil, err
	}
	probe, _ = src.(maskProbe)
	return src, probe, armIdx, excluded, nil
}

// controllerConfig mirrors the batch experiment configuration
// (experiments.Options.controllerConfig) and layers the accuracy
// masking on at the robustness fault-matrix operating point
// (core.Config.WithMasking), so the breakers have a degradation signal
// to key off.
func (s *Service) controllerConfig(req Request) core.Config {
	if s.cfg.ControllerConfig != nil {
		return s.cfg.ControllerConfig(req)
	}
	cfg := core.DefaultConfig().WithMasking()
	cfg.Seed = 1 + req.Seed
	cfg.FixedFrac = req.FixedFrac
	return cfg
}

// reportArms feeds each simulated arm's end-of-run masking state to
// its breaker and returns the names of the arms that finished masked.
// An arm ending the run masked counts as one breaker failure; the
// breaker trips only after FailureThreshold consecutive masked runs,
// so a transient in-run mask that reprobes clean never opens it.
func (s *Service) reportArms(probe maskProbe, armIdx []string) (masked []string) {
	if probe == nil {
		return nil
	}
	for i, name := range armIdx {
		ok := !probe.ArmMasked(i)
		s.breakers[name].Report(ok)
		if !ok {
			masked = append(masked, name)
		}
	}
	return masked
}
