package main

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"time"

	"resemble/internal/cache"
	"resemble/internal/cas"
	"resemble/internal/core"
	"resemble/internal/nn"
	"resemble/internal/prefetch"
	"resemble/internal/prefetch/bo"
	"resemble/internal/prefetch/domino"
	"resemble/internal/prefetch/isb"
	"resemble/internal/prefetch/spp"
	"resemble/internal/service"
	"resemble/internal/sim"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// The traced run. It never produces an end-to-end metric. It sets the
// workload up once, runs its load untraced for half the run time (the
// counters and the untraced latency_p50_ms it compares against come
// from that phase), then replays a sample of the same request sequence
// one public call at a time, each wrapped in a benchmark-owned span,
// and drives the arm, controller, nn and cache calls directly. The
// spans are written as a Chrome trace and validated.

// replayOps is how many ops of the sequence the replay takes (one for
// sim-batch, whose op is already 28 runs), and httpSamples how many
// requests each HTTP stage sends.
const (
	replayOps   = 8
	httpSamples = 8
)

// dqnShort caps the accesses a DQN layer measurement runs: at ~1.3 ms
// per access a full-size trace would take most of a minute.
const dqnShort = 300

// allControllers are the controllers sim.<controller>.ns_per_access
// covers on every workload.
var allControllers = append([]string{"resemble"}, simBatchControllers...)

// layers accumulates the per-layer metrics of one traced run.
type layers struct {
	m   map[string]metric
	tel *telemetry.Collector // benchmark-owned spans
}

func (l *layers) set(name, unit string, v float64) { l.m[name] = metric{v, unit} }

// span times f under a benchmark span named name, parented under
// parent (a root span on track when parent is nil), and returns its
// duration in ms.
func (l *layers) span(parent *telemetry.Span, track, name string, f func(sp *telemetry.Span)) float64 {
	var sp *telemetry.Span
	if parent != nil {
		sp = parent.Child(name)
	} else {
		sp = l.tel.StartSpan(track, name)
	}
	t0 := time.Now()
	f(sp)
	d := ms(time.Since(t0))
	sp.End()
	return d
}

func tracedRun(b *bench, w workload, d time.Duration, env environment) (result, error) {
	tel, err := telemetry.New(telemetry.Config{SpanCap: -1})
	if err != nil {
		return result{}, err
	}
	l := &layers{m: map[string]metric{}, tel: tel}
	inst, err := w.setup(b)
	if err != nil {
		return result{}, fmt.Errorf("%s setup: %w", w.name, err)
	}

	// Untraced phase.
	before := inst.counters()
	lr := inst.load(d / 2)
	after := inst.counters()
	untracedP50 := lr.windowed().p50
	l.counterMetrics(lr, before, after)
	if after.store != nil {
		// The store at its end-of-run size.
		if err := l.storeTimings(after.store); err != nil {
			inst.close()
			return result{}, err
		}
	}
	ops := inst.replayOps(replayOps)
	if err := inst.close(); err != nil {
		return result{}, fmt.Errorf("%s close: %w", w.name, err)
	}
	// The replay's own ops: front-durable's replay sends fresh keys so
	// every stage misses the caches as the workload does.
	var keys []runKey
	for _, op := range ops {
		keys = append(keys, op...)
	}
	durable := w.name == "front-durable"

	failed := lr.failed
	if err := l.directLayers(keys); err != nil {
		return result{}, err
	}
	st, err := l.replay(b, w.name, ops)
	if err != nil {
		return result{}, err
	}
	failed += st.failed
	httpKeys := keys
	if durable {
		httpKeys = nil
		for _, op := range inst.replayOps(2 * httpSamples) {
			httpKeys = append(httpKeys, op...)
		}
	}
	sh, err := l.serviceStage(b, httpKeys, durable)
	if err != nil {
		return result{}, err
	}
	failed += sh.failed
	fh, err := l.frontStage(b, httpKeys, durable, after.store == nil)
	if err != nil {
		return result{}, err
	}
	failed += fh.failed

	// The HTTP layer's own share: the service's time outside Run minus
	// the in-process stages that also run outside it (Get and
	// BuildSource; on a durable backend UntagPrefix+GC fall inside
	// duration_ms, and Get includes generating the trace and storing it).
	sh.httpMS = sh.overheadMS - st.perKeyMS["trace.get"] - st.perKeyMS["service.build_source"]
	l.set("service.http_ms", "ms", sh.httpMS)

	// Breakdown: the on-path stage times against the untraced p50.
	perOp := st.inProcessMS
	if w.name == "serve-short" || durable {
		perOp += sh.httpMS
	}
	if durable {
		perOp += fh.hopMS
	}
	spanCost := spanOverheadMS()
	l.set("breakdown.untraced_latency_p50_ms", "ms", untracedP50)
	l.set("breakdown.stage_sum_ms", "ms", perOp)
	l.set("breakdown.unattributed_ms", "ms", untracedP50-perOp)
	l.set("breakdown.tracing_overhead_ms", "ms", spanCost*st.spansPerOp)
	l.set("service.requests_failed", "count", l.m["service.requests_failed"].Value+float64(sh.svcFailed+fh.svcFailed))
	l.set("service.breaker_trips", "count", l.m["service.breaker_trips"].Value+float64(sh.trips+fh.trips))

	path := filepath.Join(b.workdir, fmt.Sprintf("trace-%s-%d.json", w.name, b.seed))
	if err := telemetry.WriteChromeTraceFile(path, tel.Spans()); err != nil {
		return result{}, err
	}
	if err := telemetry.ValidateChromeTraceFile(path); err != nil {
		return result{}, fmt.Errorf("chrome trace %s: %w", path, err)
	}
	if err := tel.Close(); err != nil {
		return result{}, err
	}
	if err := printJSON(b.out, map[string]any{
		"workload": w.name, "seed": b.seed, "env": env, "chrome_trace": path,
		"spans": len(tel.Spans()), "stages_ms": st.stageMS,
		"service_http_ms": sh.httpMS, "front_hop_ms": fh.hopMS,
		"untraced_latency_p50_ms": untracedP50, "stage_sum_ms": perOp,
		"unattributed_ms": untracedP50 - perOp, "span_cost_ms": spanCost,
		"traced_op_ms": st.opMS, "errors": lr.errs,
	}); err != nil {
		return result{}, err
	}
	valid, _ := lr.valid()
	return result{
		Correct:   failed == 0 && valid,
		Attempted: lr.attempted + st.attempted + sh.attempted + fh.attempted,
		Failed:    failed,
		Metrics:   l.m,
	}, nil
}

// counterMetrics derives the count-based layer metrics of the untraced
// phase from the program's own stats.
func (l *layers) counterMetrics(lr loadResult, before, after layerCounters) {
	reqs := float64(lr.requests)
	if reqs == 0 {
		reqs = 1
	}
	hits := float64(after.cacheHits - before.cacheHits)
	misses := float64(after.cacheMisses - before.cacheMisses)
	ratio := 0.0
	if hits+misses > 0 {
		ratio = hits / (hits + misses)
	}
	l.set("trace.cache_hit_ratio", "ratio", ratio)
	l.set("service.run_checkpoint_writes_per_request", "count", float64(after.runCkpWrites-before.runCkpWrites)/reqs)
	l.set("service.breaker_trips", "count", float64(after.breakerTrips-before.breakerTrips))
	l.set("service.requests_failed", "count", float64(after.svcFailed-before.svcFailed))
	l.set("cluster.failovers", "count", float64(after.failovers-before.failovers))
	l.set("cluster.hedges", "count", float64(after.hedges-before.hedges))
	l.set("cas.puts_per_request", "count", float64(after.storePuts-before.storePuts)/reqs)
	l.set("cas.blobs_end", "count", float64(after.storeBlobs))
	accesses := float64(lr.accesses)
	if accesses == 0 {
		accesses = 1
	}
	l.set("runtime.cpu_ns_per_access", "ns", float64(lr.proc.cpu.Nanoseconds())/accesses)
	l.set("runtime.gc_cycles_per_op", "count", float64(lr.proc.gcs)/float64(max(len(lr.latMS), 1)))
	l.set("loadgen.late_ms_p90", "ms", quantile(append([]float64(nil), lr.lateMS...), 0.9))
}

// storeTimings times PutTagged and UntagPrefix+GC on store as it is.
func (l *layers) storeTimings(store *cas.Store) error {
	var puts, gcs []float64
	for i := 0; i < 8; i++ {
		blob := make([]byte, 64<<10)
		rand.New(rand.NewSource(int64(i))).Read(blob)
		tag := fmt.Sprintf("perfbench/%d", i)
		var err error
		puts = append(puts, l.span(nil, "cas", "cas.put", func(*telemetry.Span) {
			_, err = store.PutTagged(cas.KindModel, blob, tag)
		}))
		if err != nil {
			return err
		}
		gcs = append(gcs, l.span(nil, "cas", "cas.untag_gc", func(*telemetry.Span) {
			if _, err = store.UntagPrefix(tag); err == nil {
				_, _, err = store.GC()
			}
		}))
		if err != nil {
			return err
		}
	}
	l.set("cas.put_ms", "ms", median(puts))
	l.set("cas.gc_ms", "ms", median(gcs))
	return nil
}

// sampleTraces returns the distinct traces the keys name, generated at
// their access counts and seeds.
func sampleTraces(keys []runKey) []*trace.Trace {
	seen := map[runKey]bool{}
	var out []*trace.Trace
	for _, k := range keys {
		tk := runKey{Trace: k.Trace, Accesses: k.Accesses, Seed: k.Seed}
		if seen[tk] {
			continue
		}
		seen[tk] = true
		w, _ := trace.Lookup(k.Trace)
		out = append(out, w.GenerateSeeded(k.Accesses, w.Seed+k.Seed))
	}
	return out
}

// contexts turns tr into the access contexts the LLC would hand a
// prefetcher, with hit flags from a standalone LLC model.
func contexts(tr *trace.Trace) []prefetch.AccessContext {
	llc := cache.New(sim.DefaultConfig().LLC)
	out := make([]prefetch.AccessContext, len(tr.Records))
	for i, r := range tr.Records {
		hit, first := llc.Access(r.Line())
		if !hit {
			llc.Insert(r.Line(), false)
		}
		out[i] = prefetch.AccessContext{Index: i, ID: r.ID, PC: r.PC, Addr: r.Addr, Line: r.Line(), Hit: hit, PrefetchHit: first}
	}
	return out
}

// perAccess times f over every context of every trace, repeating the
// sweep until at least minAccesses accesses ran, and returns ns per
// access. fresh builds the per-trace state f drives.
func perAccess(ctxs [][]prefetch.AccessContext, minAccesses int, fresh func() func(prefetch.AccessContext)) float64 {
	var n int
	var total time.Duration
	for n < minAccesses {
		for _, cs := range ctxs {
			f := fresh()
			t0 := time.Now()
			for _, c := range cs {
				f(c)
			}
			total += time.Since(t0)
			n += len(cs)
		}
	}
	return float64(total.Nanoseconds()) / float64(n)
}

// directLayers drives the cache, the arms, the controllers, nn and the
// simulator directly over the sample's traces.
func (l *layers) directLayers(keys []runKey) error {
	traces := sampleTraces(keys)
	var ctxs, short [][]prefetch.AccessContext
	for _, tr := range traces {
		cs := contexts(tr)
		ctxs = append(ctxs, cs)
		short = append(short, cs[:min(len(cs), dqnShort)])
	}
	const minAccesses = 200000

	l.set("cache.access_ns", "ns", perAccess(ctxs, minAccesses, func() func(prefetch.AccessContext) {
		llc := cache.New(sim.DefaultConfig().LLC)
		return func(c prefetch.AccessContext) {
			if hit, _ := llc.Access(c.Line); !hit {
				llc.Insert(c.Line, false)
			}
		}
	}))
	arms := map[string]func() prefetch.Prefetcher{
		"bo":     func() prefetch.Prefetcher { return bo.New(bo.Config{}) },
		"spp":    func() prefetch.Prefetcher { return spp.New(spp.Config{}) },
		"isb":    func() prefetch.Prefetcher { return isb.New(isb.Config{}) },
		"domino": func() prefetch.Prefetcher { return domino.New(domino.Config{}) },
	}
	for name, mk := range arms {
		l.set("prefetch."+name+".ns_per_access", "ns", perAccess(ctxs, minAccesses, func() func(prefetch.AccessContext) {
			p := mk()
			return func(c prefetch.AccessContext) { p.Observe(c) }
		}))
	}
	svc, err := newSourceBuilder()
	if err != nil {
		return err
	}
	source := func(ctrl string) func() func(prefetch.AccessContext) {
		return func() func(prefetch.AccessContext) {
			src, _, err := svc.BuildSource(service.Request{Workload: traceNames[0], Controller: ctrl})
			if err != nil {
				panic(err) // unreachable: the controller names are fixed
			}
			return func(c prefetch.AccessContext) { src.OnAccess(c) }
		}
	}
	l.set("core.tabular.ns_per_access", "ns", perAccess(ctxs, minAccesses, source("resemble-t")))
	l.set("ensemble.sbp.ns_per_access", "ns", perAccess(ctxs, minAccesses, source("sbp-e")))
	dqn := perAccess(short, 2000, source("resemble"))
	l.set("core.dqn.ns_per_access", "ns", dqn)
	l.nnLayers(dqn)

	// sim.<controller>: Runner.Run per controller over the sample's
	// traces; resemble over their first dqnShort accesses.
	runner := sim.NewRunner(sim.DefaultConfig())
	var allocs, simAccesses uint64
	for _, ctrl := range allControllers {
		var total time.Duration
		var n int
		for _, tr := range traces {
			if ctrl == "resemble" && len(tr.Records) > dqnShort {
				tr = &trace.Trace{Name: tr.Name, Records: tr.Records[:dqnShort]}
			}
			src, _, err := svc.BuildSource(service.Request{Workload: tr.Name, Controller: ctrl})
			if err != nil {
				return err
			}
			p := sampleProc()
			t0 := time.Now()
			var rerr error
			l.span(nil, "direct", "sim.run."+ctrl, func(*telemetry.Span) { _, rerr = runner.Run(tr, src) })
			total += time.Since(t0)
			if rerr != nil {
				return rerr
			}
			allocs += p.since().mallocs
			simAccesses += uint64(len(tr.Records))
			n += len(tr.Records)
		}
		l.set("sim."+ctrl+".ns_per_access", "ns", float64(total.Nanoseconds())/float64(n))
	}
	l.set("sim.allocs_per_access", "count", float64(allocs)/float64(simAccesses))

	var gens []float64
	for _, k := range keys {
		w, _ := trace.Lookup(k.Trace)
		gens = append(gens, l.span(nil, "direct", "trace.generate", func(*telemetry.Span) {
			w.GenerateSeeded(k.Accesses, w.Seed+k.Seed)
		}))
	}
	l.set("trace.generate_ms", "ms", median(gens))
	return nil
}

// nnLayers times the controller's network at its own geometry: a
// forward pass, a 256-row batch forward and one training step, and
// reports how much of a DQN access they account for (each access
// trains one batch: Batch train steps, one batch forward for the
// bootstrap targets and one serving forward).
func (l *layers) nnLayers(dqnNS float64) {
	cfg := core.DefaultConfig()
	arms := len(service.ArmNames())
	rng := rand.New(rand.NewSource(1))
	m := nn.NewMLP(rng, nn.ReLU, arms, cfg.Hidden, arms+1)
	x := make([]float64, arms)
	for i := range x {
		x[i] = rng.Float64()
	}
	xs := make([][]float64, cfg.Batch)
	for i := range xs {
		xs[i] = x
	}
	timeIt := func(n int, f func()) float64 {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		return float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	dst := make([]float64, arms+1)
	var batch [][]float64
	fwd := timeIt(200000, func() { dst = m.ForwardInto(dst, x) })
	fb := timeIt(2000, func() { batch = m.ForwardBatch(batch, xs) })
	train := timeIt(100000, func() { m.TrainStep(x, 1, 0.5, cfg.LR) })
	l.set("nn.forward_ns", "ns", fwd)
	l.set("nn.forward_batch_ns", "ns", fb)
	l.set("nn.train_step_ns", "ns", train)
	l.set("nn.dqn_accounted_ratio", "ratio", (float64(cfg.Batch)*train+fb+fwd)/dqnNS)
}

// stageTimes is what the in-process replay measured.
type stageTimes struct {
	stageMS     map[string]float64 // median per-op time of each stage
	perKeyMS    map[string]float64 // the same per simulation
	inProcessMS float64            // median op: sum of its stages
	opMS        float64            // median op span, tracing included
	spansPerOp  float64
	attempted   int
	failed      int
}

// replay runs ops through the in-process stages: Cache.Get,
// BuildSource, Runner.Run (with a checkpoint sink into a store, and
// UntagPrefix+GC after, on front-durable).
func (l *layers) replay(b *bench, name string, ops [][]runKey) (stageTimes, error) {
	durable := name == "front-durable"
	svc, err := newSourceBuilder()
	if err != nil {
		return stageTimes{}, err
	}
	tc := trace.NewCache(0)
	var store *cas.Store
	if durable {
		dir := filepath.Join(b.workdir, "replay-store")
		if store, err = openFresh(dir); err != nil {
			return stageTimes{}, err
		}
		defer closeStore(store, dir)
		tc.AttachStore(store)
	} else {
		// The workload's traces are warm.
		for _, op := range ops {
			for _, k := range op {
				w, _ := trace.Lookup(k.Trace)
				tc.Get(w, k.Accesses, w.Seed+k.Seed)
			}
		}
	}
	base := sim.NewRunner(sim.DefaultConfig())
	st := stageTimes{stageMS: map[string]float64{}, perKeyMS: map[string]float64{}}
	perStage := map[string][]float64{}
	var sums, opSpans []float64
	spans0 := len(l.tel.Spans())
	for i, op := range ops {
		sum := map[string]float64{}
		var opErr error
		opMS := l.span(nil, fmt.Sprintf("replay:%d", i), "op", func(root *telemetry.Span) {
			for _, k := range op {
				st.attempted++
				w, _ := trace.Lookup(k.Trace)
				var tr *trace.Trace
				sum["trace.get"] += l.span(root, "", "trace.get", func(*telemetry.Span) {
					tr = tc.Get(w, k.Accesses, w.Seed+k.Seed)
				})
				var src sim.Source
				sum["service.build_source"] += l.span(root, "", "service.build_source", func(*telemetry.Span) {
					src, _, opErr = svc.BuildSource(k.request())
				})
				if opErr != nil {
					return
				}
				runner := base
				key := service.RunKey(k.request())
				var putMS float64
				if durable && sim.CanCheckpoint(src) {
					runner = base.With(sim.WithCheckpointScope(key),
						sim.WithCheckpointSink(durableCkpEvery, func(blob []byte, cursor int) error {
							putMS += l.span(root, "", "cas.put", func(*telemetry.Span) {
								_, opErr = store.PutTagged(cas.KindCheckpoint, blob,
									service.CheckpointTag(key, cursor), service.CheckpointLatestTag(key))
							})
							return nil
						}))
				}
				var res sim.Result
				var rerr error
				runMS := l.span(root, "", "sim.run", func(*telemetry.Span) { res, rerr = runner.Run(tr, src) })
				sum["sim.run"] += runMS - putMS
				if durable {
					sum["cas.put"] += putMS
				}
				if rerr != nil {
					opErr = rerr
					return
				}
				if durable {
					sum["cas.untag_gc"] += l.span(root, "", "cas.untag_gc", func(*telemetry.Span) {
						if _, opErr = store.UntagPrefix(service.CheckpointTagPrefix(key)); opErr == nil {
							_, _, opErr = store.GC()
						}
					})
				}
				if err := b.ref.check(k, statsOfResult(res)); err != nil {
					st.failed++
				}
			}
		})
		if opErr != nil {
			return st, opErr
		}
		total := 0.0
		for s, v := range sum {
			perStage[s] = append(perStage[s], v)
			total += v
		}
		sums = append(sums, total)
		opSpans = append(opSpans, opMS)
	}
	for s, v := range perStage {
		st.stageMS[s] = median(v)
		st.perKeyMS[s] = st.stageMS[s] / float64(len(ops[0]))
	}
	st.inProcessMS = median(sums)
	st.opMS = median(opSpans)
	st.spansPerOp = float64(len(l.tel.Spans())-spans0) / float64(len(ops))
	return st, nil
}

// httpStage is what an HTTP stage measured.
type httpStage struct {
	overheadMS float64 // median latency minus duration_ms
	httpMS     float64 // on-path time the stage adds over the in-process stages
	hopMS      float64 // the front's own hop
	attempted  int
	failed     int
	svcFailed  uint64
	trips      uint64
}

// serviceStage POSTs keys to one service set up as the workload's
// serving node: lean (serve-short) or a durable backend with
// telemetry and a store (front-durable).
func (l *layers) serviceStage(b *bench, keys []runKey, durable bool) (httpStage, error) {
	keys = keys[:min(len(keys), httpSamples)]
	tc := trace.NewCache(0)
	cfg := serveShortConfig(tc)
	if durable {
		dir := filepath.Join(b.workdir, "replay-service-store")
		store, err := openFresh(dir)
		if err != nil {
			return httpStage{}, err
		}
		defer closeStore(store, dir)
		tel, err := telemetry.New(telemetry.Config{})
		if err != nil {
			return httpStage{}, err
		}
		defer tel.Close()
		tc.AttachStore(store)
		cfg = service.Config{Workers: 1, Store: store, RunCheckpointEvery: durableCkpEvery,
			Telemetry: tel, Traces: tc, Breaker: quiesced}
	}
	svc, err := service.New(cfg)
	if err == nil {
		err = svc.Start()
	}
	if err != nil {
		return httpStage{}, err
	}
	defer svc.Close()
	if !durable {
		for _, k := range keys { // the workload's traces are warm
			if _, err := b.postChecked(svc.Addr(), k); err != nil {
				return httpStage{}, err
			}
		}
	}
	var hs httpStage
	var overhead, runs, builds []float64
	p := sampleProc()
	for i, k := range keys {
		hs.attempted++
		var resp service.Response
		var perr error
		lat := l.span(nil, fmt.Sprintf("service:%d", i), "http.service", func(*telemetry.Span) {
			resp, perr = b.postChecked(svc.Addr(), k)
		})
		if perr != nil {
			hs.failed++
			continue
		}
		overhead = append(overhead, lat-resp.DurationMS)
		runs = append(runs, resp.DurationMS)
	}
	allocs := p.since().mallocs
	for _, k := range keys {
		t0 := time.Now()
		if _, _, err := svc.BuildSource(k.request()); err != nil {
			return hs, err
		}
		builds = append(builds, float64(time.Since(t0).Microseconds()))
	}
	st := svc.Stats()
	hs.svcFailed, hs.trips = st.Failed, sumTrips(st)
	l.set("service.build_source_us", "us", median(builds))
	l.set("service.run_ms", "ms", median(runs))
	l.set("service.overhead_ms", "ms", median(overhead))
	l.set("service.allocs_per_request", "count", float64(allocs)/float64(len(keys)))
	hs.overheadMS = median(overhead)
	return hs, nil
}

// frontStage POSTs keys to a front-durable fleet: through the front
// (cluster.overhead_ms) and straight to a backend asking for windows
// and spans as the front does (response size, windows, spans). When
// timeStore is set, the fleet's store afterwards gives cas.put_ms and
// cas.gc_ms, for workloads whose own run has no store.
func (l *layers) frontStage(b *bench, keys []runKey, fresh, timeStore bool) (httpStage, error) {
	keys = keys[:min(len(keys), 2*httpSamples)]
	b.setups++
	f, err := startFleet(filepath.Join(b.workdir, fmt.Sprintf("replay-fleet-%d", b.setups)))
	if err != nil {
		return httpStage{}, err
	}
	defer f.close()
	half := len(keys) / 2
	frontKeys, backendKeys := keys[:half], keys[half:]
	if !fresh {
		frontKeys, backendKeys = keys[:min(len(keys), httpSamples)], keys[:min(len(keys), httpSamples)]
		for _, k := range frontKeys { // warm, as the workload's traces are
			if _, err := b.postChecked(f.front.Addr(), k); err != nil {
				return httpStage{}, err
			}
		}
	}
	var hs httpStage
	var frontOver, backOver, bytesN, windows, spans []float64
	for i, k := range frontKeys {
		hs.attempted++
		var resp service.Response
		var perr error
		lat := l.span(nil, fmt.Sprintf("front:%d", i), "http.front", func(*telemetry.Span) {
			resp, perr = b.postChecked(f.front.Addr(), k)
		})
		if perr != nil {
			hs.failed++
			continue
		}
		frontOver = append(frontOver, lat-resp.DurationMS)
	}
	for i, k := range backendKeys {
		hs.attempted++
		req := k.request()
		req.ReturnWindows, req.ReturnSpans = true, true
		var resp service.Response
		var n int
		var perr error
		lat := l.span(nil, fmt.Sprintf("backend:%d", i), "http.backend", func(*telemetry.Span) {
			resp, n, perr = b.post(f.backends[i%2].Addr(), req)
		})
		if perr == nil {
			perr = b.ref.check(k, statsOfResponse(resp))
		}
		if perr != nil {
			hs.failed++
			continue
		}
		backOver = append(backOver, lat-resp.DurationMS)
		bytesN = append(bytesN, float64(n))
		windows = append(windows, float64(len(resp.Windows)))
		spans = append(spans, float64(len(resp.Spans)))
	}
	c := f.counters()
	hs.svcFailed, hs.trips = c.svcFailed, c.breakerTrips
	l.set("cluster.failovers", "count", l.m["cluster.failovers"].Value+float64(c.failovers))
	l.set("cluster.hedges", "count", l.m["cluster.hedges"].Value+float64(c.hedges))
	l.set("cluster.overhead_ms", "ms", median(frontOver))
	l.set("cluster.backend_response_bytes", "bytes", median(bytesN))
	l.set("telemetry.windows_per_request", "count", median(windows))
	l.set("telemetry.spans_per_request", "count", median(spans))
	hs.hopMS = median(frontOver) - median(backOver)
	l.set("cluster.hop_ms", "ms", hs.hopMS)
	if timeStore {
		if err := l.storeTimings(f.store); err != nil {
			return hs, err
		}
	}
	return hs, nil
}

// spanOverheadMS measures what one benchmark span costs (start, end,
// record) on a scratch collector.
func spanOverheadMS() float64 {
	c, err := telemetry.New(telemetry.Config{SpanCap: -1})
	if err != nil {
		return 0
	}
	defer c.Close()
	const n = 20000
	root := c.StartSpan("overhead", "root")
	t0 := time.Now()
	for i := 0; i < n; i++ {
		root.Child("x").End()
	}
	return ms(time.Since(t0)) / n
}

func openFresh(dir string) (*cas.Store, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s, _, err := cas.Open(dir)
	return s, err
}

func closeStore(s *cas.Store, dir string) {
	s.Close()
	os.RemoveAll(dir)
}
