package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"resemble/internal/cas"
	"resemble/internal/cluster"
	"resemble/internal/resilience"
	"resemble/internal/service"
	"resemble/internal/sim"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// traceNames are the four pattern classes every workload draws from:
// regular streaming (433.milc), pointer chasing (471.omnetpp), graph
// (gap.pr) and a mixed stencil (654.roms).
var traceNames = []string{"433.milc", "471.omnetpp", "gap.pr", "654.roms"}

// simBatchControllers are the controllers a researcher compares in one
// batch: the two serving ensembles, the four arms and the baseline.
var simBatchControllers = []string{"resemble-t", "sbp-e", "bo", "spp", "isb", "domino", "none"}

// servingControllers are the controllers the HTTP workloads request.
var servingControllers = []string{"resemble-t", "sbp-e"}

// Pool sizes: how many request seeds per trace each workload draws
// from. The reference table covers every key of every pool, so any
// --seed yields checkable requests; the seed picks which keys a run
// uses and in which order.
const (
	simBatchSeeds     = 8
	simBatchAccesses  = 20000
	serveShortSeeds   = 16
	durableSeeds      = 256
	durableCkpEvery   = 1000
	durableWarmups    = 4
	dqnSeeds          = 8
	loadClients       = 2 // closed-loop clients / workers: nproc on the reference host
	durableRatePerSec = 36
)

// Request sizes, centred on 1000 (serve-short), 2000 (front-durable)
// and 300 (dqn-online) accesses. The (trace, controller) classes of one
// size would give a latency distribution of separate modes, with a
// percentile on the edge between two of them, where a tiny shift moves
// it far; spreading the sizes fills the gaps.
var (
	serveSizes   = sizes(600, 1400, 100)
	durableSizes = sizes(1200, 2800, 200)
	dqnSizes     = sizes(200, 400, 50)
)

func sizes(lo, hi, step int) []int {
	var out []int
	for n := lo; n <= hi; n += step {
		out = append(out, n)
	}
	return out
}

// quiesced is the breaker configuration every service in the benchmark
// runs with: arm breakers never trip, so which arms a run gets cannot
// depend on the completion order of earlier runs (the same adaptation
// the cluster soak's determinism audit quiesces).
var quiesced = resilience.BreakerConfig{FailureThreshold: 1 << 30}

// workload is one benchmark workload: the request pool it draws from
// and how to set it up.
type workload struct {
	name string
	// pool lists every run key the workload can issue.
	pool func() []runKey
	// setup builds a ready-to-measure instance for one seed: daemons
	// started, stores opened, traces warm, first request per config
	// served. Everything in it is paid once by a user.
	setup func(b *bench) (instance, error)
}

// instance is one set-up workload.
type instance interface {
	// load drives the timed load for d.
	load(d time.Duration) loadResult
	// counters reports the layer counters the instance accumulated.
	counters() layerCounters
	// replayOps returns n ops of the workload's request sequence for
	// the traced replay; front-durable hands out keys no earlier
	// request used.
	replayOps(n int) [][]runKey
	close() error
}

// layerCounters are per-layer counts read from the program's own
// stats after a load phase.
type layerCounters struct {
	cacheHits, cacheMisses int64
	runCkpWrites           uint64
	breakerTrips           uint64
	svcFailed              uint64
	failovers, hedges      uint64
	storePuts              uint64
	storeBlobs             int
	backendCompleted       []uint64   // per backend, in address order
	store                  *cas.Store // the live store, for end-of-run timings
}

// loadResult is what a load phase measured.
type loadResult struct {
	window    time.Duration // the measured span; ops complete up to a little past it
	latMS     []float64     // per completed op
	latAt     []float64     // when each of those ops completed, in seconds from the start
	done      []done        // every completed request
	lateMS    []float64     // open loop: how late each send left
	attempted int           // simulations attempted
	failed    int           // simulations that errored or mismatched the reference
	accesses  int64         // simulated accesses completed
	requests  int           // requests (or Runner.Run calls) completed
	elapsed   time.Duration
	proc      procSample
	errs      []string
}

// bench carries what every workload needs: the seed, the reference,
// the scratch directory and an HTTP client.
type bench struct {
	seed    int64
	ref     reference
	workdir string
	client  *http.Client
	out     io.Writer // where the detail and result lines go
	setups  int       // set-ups so far, for unique scratch names
}

var workloads = []workload{
	{name: "sim-batch", pool: simBatchPool, setup: setupSimBatch},
	{name: "serve-short", pool: serveShortPool, setup: setupServeShort},
	{name: "front-durable", pool: durablePool, setup: setupFrontDurable},
	{name: "dqn-online", pool: dqnPool, setup: setupDQNOnline},
}

func lookupWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

func keysFor(controllers []string, seeds, accesses int) []runKey {
	var out []runKey
	for _, t := range traceNames {
		for s := 0; s < seeds; s++ {
			for _, c := range controllers {
				out = append(out, runKey{t, c, accesses, int64(s)})
			}
		}
	}
	return out
}

func simBatchPool() []runKey { return keysFor(simBatchControllers, simBatchSeeds, simBatchAccesses) }

func serveShortPool() []runKey { return sizedKeys(servingControllers, serveShortSeeds, serveSizes) }
func dqnPool() []runKey        { return sizedKeys([]string{"resemble"}, dqnSeeds, dqnSizes) }

func sizedKeys(controllers []string, seeds int, sizes []int) []runKey {
	var out []runKey
	for _, n := range sizes {
		out = append(out, keysFor(controllers, seeds, n)...)
	}
	return out
}

// durablePool gives every (trace, seed) pair one controller and one
// size, so each request of a front-durable run names a trace no earlier
// request generated: every request misses the trace cache and writes
// the store.
func durablePool() []runKey {
	var out []runKey
	for _, t := range traceNames {
		for s := 0; s < durableSeeds; s++ {
			n := durableSizes[(s/2)%len(durableSizes)]
			out = append(out, runKey{t, servingControllers[s%2], n, int64(s)})
		}
	}
	return out
}

// newSourceBuilder is a never-started service: its breakers are all
// closed, so BuildSource constructs exactly what a serving request
// with the same key gets.
func newSourceBuilder() (*service.Service, error) {
	return service.New(service.Config{Breaker: quiesced})
}

// simulate runs one key in-process the way the service does.
func simulate(svc *service.Service, cache *trace.Cache, runner *sim.Runner, k runKey) (simStats, error) {
	w, err := trace.Lookup(k.Trace)
	if err != nil {
		return simStats{}, err
	}
	tr := cache.Get(w, k.Accesses, w.Seed+k.Seed)
	src, _, err := svc.BuildSource(k.request())
	if err != nil {
		return simStats{}, err
	}
	res, err := runner.Run(tr, src)
	if err != nil {
		return simStats{}, err
	}
	return statsOfResult(res), nil
}

// closedLoop runs `clients` goroutines that each issue op(i) for
// successive shared indexes i until d has passed, then waits for the
// ops in flight. Op i's content depends only on i, so a run issues a
// seed-determined prefix of its sequence whatever the interleaving.
// op returns how many simulations it attempted, how many failed and
// how many accesses and requests completed.
func closedLoop(clients int, d time.Duration, op func(i int) opResult) loadResult {
	var (
		mu   sync.Mutex
		res  loadResult
		next atomic.Int64
		wg   sync.WaitGroup
	)
	start := time.Now()
	before := sampleProc()
	deadline := start.Add(d)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := int(next.Add(1) - 1)
				t0 := time.Now()
				r := op(i)
				end := time.Now()
				mu.Lock()
				res.add(r, start, t0, end)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	res.window = d
	res.elapsed = time.Since(start)
	res.proc = before.since()
	return res
}

// opResult is one op's outcome.
type opResult struct {
	attempted, failed int
	accesses          int64
	requests          int
	// parts holds when each request of a multi-request op completed;
	// a one-request op leaves it empty and completes with the op.
	parts []time.Time
	errs  []error
}

// done is one completed request: when (seconds from the start) and
// how many accesses it simulated.
type done struct {
	at       float64
	accesses int64
}

// add charges op o, which began at opStart and ended at end, to r.
func (r *loadResult) add(o opResult, start, opStart, end time.Time) {
	r.attempted += o.attempted
	r.failed += o.failed
	r.accesses += o.accesses
	r.requests += o.requests
	for _, e := range o.errs {
		if len(r.errs) < 8 {
			r.errs = append(r.errs, e.Error())
		}
	}
	if o.requests == 0 {
		return
	}
	at := end.Sub(start).Seconds()
	r.latMS = append(r.latMS, ms(end.Sub(opStart)))
	r.latAt = append(r.latAt, at)
	if len(o.parts) == 0 {
		r.done = append(r.done, done{at, o.accesses})
		return
	}
	per := o.accesses / int64(len(o.parts))
	for _, p := range o.parts {
		r.done = append(r.done, done{p.Sub(start).Seconds(), per})
	}
}

// --- sim-batch -----------------------------------------------------

// simBatch runs whole comparison batches in-process: one op is every
// controller over one trace of each pattern class (4 x 7 Runner.Run
// calls), the unit a researcher waits for.
type simBatch struct {
	b      *bench
	svc    *service.Service
	cache  *trace.Cache
	runner *sim.Runner
	perms  [][]int // per trace, a seed order
}

func setupSimBatch(b *bench) (instance, error) {
	svc, err := newSourceBuilder()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(b.seed))
	s := &simBatch{b: b, svc: svc, cache: trace.NewCache(0), runner: sim.NewRunner(sim.DefaultConfig())}
	for range traceNames {
		s.perms = append(s.perms, rng.Perm(simBatchSeeds))
	}
	// Generate every trace the run can touch and serve the first
	// request of each controller.
	for _, name := range traceNames {
		w, _ := trace.Lookup(name)
		for seed := 0; seed < simBatchSeeds; seed++ {
			s.cache.Get(w, simBatchAccesses, w.Seed+int64(seed))
		}
	}
	for _, c := range simBatchControllers {
		k := s.batch(0)[0]
		k.Controller = c
		if _, err := simulate(s.svc, s.cache, s.runner, k); err != nil {
			return nil, err
		}
	}
	return s, nil
}

// batch lists op i's runs.
func (s *simBatch) batch(i int) []runKey {
	var out []runKey
	for t, name := range traceNames {
		seed := int64(s.perms[t][i%simBatchSeeds])
		for _, c := range simBatchControllers {
			out = append(out, runKey{name, c, simBatchAccesses, seed})
		}
	}
	return out
}

func (s *simBatch) load(d time.Duration) loadResult {
	return closedLoop(loadClients, d, func(i int) opResult {
		var r opResult
		for _, k := range s.batch(i) {
			r.attempted++
			got, err := simulate(s.svc, s.cache, s.runner, k)
			if err == nil {
				err = s.b.ref.check(k, got)
			}
			if err != nil {
				r.failed++
				r.errs = append(r.errs, err)
				continue
			}
			r.accesses += int64(k.Accesses)
			r.requests++
			r.parts = append(r.parts, time.Now())
		}
		return r
	})
}

func (s *simBatch) counters() layerCounters {
	st := s.cache.Stats()
	return layerCounters{cacheHits: st.Hits, cacheMisses: st.Misses}
}

func (s *simBatch) close() error { return nil }

// replayOps hands out a quarter as many ops as asked (at least one):
// a sim-batch op is already 28 runs.
func (s *simBatch) replayOps(n int) [][]runKey {
	var out [][]runKey
	for i := 0; i < max(n/4, 1); i++ {
		out = append(out, s.batch(i))
	}
	return out
}

// singleOps lists keys[0:n] as one-key ops.
func singleOps(keys []runKey, n int) [][]runKey {
	var out [][]runKey
	for _, k := range keys[:min(n, len(keys))] {
		out = append(out, []runKey{k})
	}
	return out
}

// --- dqn-online ----------------------------------------------------

// dqnOnline runs short online-training ReSemble (DQN) runs in-process.
type dqnOnline struct {
	b      *bench
	svc    *service.Service
	cache  *trace.Cache
	runner *sim.Runner
	keys   []runKey
}

func setupDQNOnline(b *bench) (instance, error) {
	svc, err := newSourceBuilder()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(b.seed))
	s := &dqnOnline{b: b, svc: svc, cache: trace.NewCache(0), runner: sim.NewRunner(sim.DefaultConfig())}
	// Op i runs trace i mod 4, so every run holds the four traces in
	// equal shares (their DQN costs differ fourfold); each trace cycles
	// through its (size, seed) keys in a seeded order.
	pool := dqnPool()
	byTrace := make([][]runKey, len(traceNames))
	for t, name := range traceNames {
		for _, k := range pool {
			if k.Trace == name {
				byTrace[t] = append(byTrace[t], k)
			}
		}
		rng.Shuffle(len(byTrace[t]), func(i, j int) { byTrace[t][i], byTrace[t][j] = byTrace[t][j], byTrace[t][i] })
	}
	for i := 0; i < 4096; i++ {
		keys := byTrace[i%len(traceNames)]
		s.keys = append(s.keys, keys[(i/len(traceNames))%len(keys)])
	}
	for _, k := range pool {
		w, _ := trace.Lookup(k.Trace)
		s.cache.Get(w, k.Accesses, w.Seed+k.Seed)
	}
	if _, err := simulate(s.svc, s.cache, s.runner, s.keys[0]); err != nil {
		return nil, err
	}
	return s, nil
}

func (s *dqnOnline) load(d time.Duration) loadResult {
	return closedLoop(loadClients, d, func(i int) opResult {
		k := s.keys[i%len(s.keys)]
		got, err := simulate(s.svc, s.cache, s.runner, k)
		if err == nil {
			err = s.b.ref.check(k, got)
		}
		if err != nil {
			return opResult{attempted: 1, failed: 1, errs: []error{err}}
		}
		return opResult{attempted: 1, accesses: int64(k.Accesses), requests: 1}
	})
}

func (s *dqnOnline) counters() layerCounters {
	st := s.cache.Stats()
	return layerCounters{cacheHits: st.Hits, cacheMisses: st.Misses}
}

func (s *dqnOnline) close() error { return nil }

func (s *dqnOnline) replayOps(n int) [][]runKey { return singleOps(s.keys, n) }

// --- HTTP helpers --------------------------------------------------

// post sends req to addr's /v1/run and decodes the response.
func (b *bench) post(addr string, req service.Request) (service.Response, int, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return service.Response{}, 0, err
	}
	resp, err := b.client.Post("http://"+addr+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return service.Response{}, 0, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return service.Response{}, 0, err
	}
	var out service.Response
	if err := json.Unmarshal(raw, &out); err != nil {
		return service.Response{}, len(raw), fmt.Errorf("decode response (status %d): %w", resp.StatusCode, err)
	}
	if resp.StatusCode != http.StatusOK {
		return out, len(raw), fmt.Errorf("status %d: %s", resp.StatusCode, out.Error)
	}
	return out, len(raw), nil
}

// postChecked sends k and checks the simulated statistics.
func (b *bench) postChecked(addr string, k runKey) (service.Response, error) {
	resp, _, err := b.post(addr, k.request())
	if err != nil {
		return resp, fmt.Errorf("%s: %w", k, err)
	}
	return resp, b.ref.check(k, statsOfResponse(resp))
}

func httpOp(b *bench, addr string, k runKey) opResult {
	if _, err := b.postChecked(addr, k); err != nil {
		return opResult{attempted: 1, failed: 1, errs: []error{err}}
	}
	return opResult{attempted: 1, accesses: int64(k.Accesses), requests: 1}
}

// --- serve-short ---------------------------------------------------

// serveShort drives one lean in-process service over HTTP: no
// telemetry, no store, traces warm in its cache.
type serveShort struct {
	b     *bench
	svc   *service.Service
	cache *trace.Cache
	keys  []runKey
}

func serveShortConfig(cache *trace.Cache) service.Config {
	return service.Config{Workers: loadClients, Traces: cache, Breaker: quiesced}
}

func setupServeShort(b *bench) (instance, error) {
	rng := rand.New(rand.NewSource(b.seed))
	// One seed per trace for the whole run: its traces stay warm.
	seeds := make([]int64, len(traceNames))
	for t := range seeds {
		seeds[t] = int64(rng.Intn(serveShortSeeds))
	}
	s := &serveShort{b: b, cache: trace.NewCache(0)}
	for i := 0; i < 1<<16; i++ {
		t := rng.Intn(len(traceNames))
		c := servingControllers[rng.Intn(len(servingControllers))]
		n := serveSizes[rng.Intn(len(serveSizes))]
		s.keys = append(s.keys, runKey{traceNames[t], c, n, seeds[t]})
	}
	for t, name := range traceNames {
		w, _ := trace.Lookup(name)
		for _, n := range serveSizes {
			s.cache.Get(w, n, w.Seed+seeds[t])
		}
	}
	svc, err := service.New(serveShortConfig(s.cache))
	if err != nil {
		return nil, err
	}
	if err := svc.Start(); err != nil {
		return nil, err
	}
	s.svc = svc
	// The first request of each controller.
	for _, c := range servingControllers {
		k := runKey{traceNames[0], c, serveSizes[0], seeds[0]}
		if _, _, err := b.post(svc.Addr(), k.request()); err != nil {
			svc.Close()
			return nil, err
		}
	}
	return s, nil
}

func (s *serveShort) load(d time.Duration) loadResult {
	return closedLoop(loadClients, d, func(i int) opResult {
		return httpOp(s.b, s.svc.Addr(), s.keys[i%len(s.keys)])
	})
}

func (s *serveShort) counters() layerCounters {
	st := s.cache.Stats()
	ss := s.svc.Stats()
	return layerCounters{cacheHits: st.Hits, cacheMisses: st.Misses,
		breakerTrips: sumTrips(ss), svcFailed: ss.Failed}
}

func (s *serveShort) close() error { return s.svc.Close() }

func (s *serveShort) replayOps(n int) [][]runKey { return singleOps(s.keys, n) }

func sumTrips(st service.Stats) uint64 {
	var n uint64
	for _, v := range st.BreakerTrips {
		n += v
	}
	return n
}

// --- front-durable -------------------------------------------------

// fleet is a cluster front plus two single-worker backends, each with
// its own telemetry collector, all sharing one artifact store.
type fleet struct {
	dir      string
	store    *cas.Store
	backends []*service.Service
	caches   []*trace.Cache
	tels     []*telemetry.Collector
	front    *cluster.Front
}

func startFleet(dir string) (*fleet, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	store, _, err := cas.Open(dir)
	if err != nil {
		return nil, err
	}
	f := &fleet{dir: dir, store: store}
	var addrs []string
	for i := 0; i < 2; i++ {
		tel, err := telemetry.New(telemetry.Config{})
		if err != nil {
			f.close()
			return nil, err
		}
		f.tels = append(f.tels, tel)
		cache := trace.NewCache(0)
		cache.AttachStore(store)
		f.caches = append(f.caches, cache)
		svc, err := service.New(service.Config{
			Workers: 1, Store: store, RunCheckpointEvery: durableCkpEvery,
			Telemetry: tel, Traces: cache, Breaker: quiesced,
		})
		if err == nil {
			err = svc.Start()
		}
		if err != nil {
			f.close()
			return nil, err
		}
		f.backends = append(f.backends, svc)
		addrs = append(addrs, svc.Addr())
	}
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		f.close()
		return nil, err
	}
	f.tels = append(f.tels, tel)
	front, err := cluster.New(cluster.Config{Backends: addrs, Store: store, Telemetry: tel})
	if err == nil {
		err = front.Start()
	}
	if err != nil {
		f.close()
		return nil, err
	}
	f.front = front
	return f, nil
}

func (f *fleet) close() error {
	var first error
	keep := func(err error) {
		if err != nil && first == nil {
			first = err
		}
	}
	if f.front != nil {
		keep(f.front.Close())
	}
	for _, b := range f.backends {
		keep(b.Close())
	}
	for _, t := range f.tels {
		keep(t.Close())
	}
	keep(f.store.Close())
	keep(os.RemoveAll(f.dir))
	return first
}

func (f *fleet) counters() layerCounters {
	var c layerCounters
	for _, cache := range f.caches {
		st := cache.Stats()
		c.cacheHits += st.Hits
		c.cacheMisses += st.Misses
	}
	for _, b := range f.backends {
		st := b.Stats()
		c.runCkpWrites += st.RunCkpWrites
		c.breakerTrips += sumTrips(st)
		c.svcFailed += st.Failed
		c.backendCompleted = append(c.backendCompleted, st.Completed)
	}
	fs := f.front.Stats()
	c.failovers, c.hedges = fs.Failovers, fs.Hedges
	ss := f.store.Stats()
	c.storePuts, c.storeBlobs, c.store = ss.Puts, ss.Blobs, f.store
	return c
}

type frontDurable struct {
	b     *bench
	fleet *fleet
	keys  []runKey // requests, in send order
	used  int      // keys already sent
}

func setupFrontDurable(b *bench) (instance, error) {
	b.setups++
	f, err := startFleet(filepath.Join(b.workdir, fmt.Sprintf("store-%d", b.setups)))
	if err != nil {
		return nil, err
	}
	pool := durablePool()
	rng := rand.New(rand.NewSource(b.seed))
	rng.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	for _, k := range pool[:durableWarmups] {
		if _, _, err := b.post(f.front.Addr(), k.request()); err != nil {
			f.close()
			return nil, err
		}
	}
	return &frontDurable{b: b, fleet: f, keys: pool[durableWarmups:]}, nil
}

// load is an open loop: request i is due at start + i/rate whatever
// happened to earlier requests, and its latency runs from that due
// time, so a stall also charges the requests queued behind it.
func (s *frontDurable) load(d time.Duration) loadResult {
	n := int(d.Seconds() * durableRatePerSec)
	if n > len(s.keys)-s.used {
		n = len(s.keys) - s.used
	}
	interval := time.Second / durableRatePerSec
	var (
		mu  sync.Mutex
		res loadResult
		wg  sync.WaitGroup
	)
	before := sampleProc()
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * interval)
		time.Sleep(time.Until(due))
		late := ms(time.Since(due))
		k := s.keys[s.used+i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			r := httpOp(s.b, s.fleet.front.Addr(), k)
			end := time.Now()
			mu.Lock()
			res.add(r, start, due, end)
			res.lateMS = append(res.lateMS, late)
			mu.Unlock()
		}()
	}
	wg.Wait()
	s.used += n
	res.window = d
	res.elapsed = time.Since(start)
	res.proc = before.since()
	return res
}

func (s *frontDurable) replayOps(n int) [][]runKey {
	ops := singleOps(s.keys[s.used:], n)
	s.used += len(ops)
	return ops
}

func (s *frontDurable) counters() layerCounters { return s.fleet.counters() }

func (s *frontDurable) close() error { return s.fleet.close() }
