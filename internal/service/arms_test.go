package service

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"runtime"
	"testing"

	"resemble/internal/cas"
	"resemble/internal/checkpoint"
	"resemble/internal/core"
	"resemble/internal/sim"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

// badResumeBlob returns a checkpoint of req's run that passes every
// identity check and restores the simulator and source, then fails on
// its telemetry section. Resuming from it leaves the arms loaded with
// mid-run state when sim.ErrBadResume sends the service to its
// scratch fallback.
func badResumeBlob(t *testing.T, ref *Service, req Request) []byte {
	t.Helper()
	w, err := trace.Lookup(req.Workload)
	if err != nil {
		t.Fatal(err)
	}
	tr := ref.cfg.Traces.Get(w, req.Accesses, w.Seed+req.Seed)
	src, _, _, _, err := ref.buildSource(req)
	if err != nil {
		t.Fatal(err)
	}
	var first []byte
	sink := func(blob []byte, _ int) error {
		if first == nil {
			first = bytes.Clone(blob)
		}
		return nil
	}
	runner := sim.NewRunner(sim.DefaultConfig(),
		sim.WithCheckpointScope(RunKey(req)), sim.WithCheckpointSink(req.Accesses/3, sink))
	if _, err := runner.Run(tr, src); err != nil {
		t.Fatal(err)
	}
	f, err := checkpoint.Read(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	b := checkpoint.NewBuilder()
	for _, name := range f.Sections() {
		r, err := f.Section(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := b.Add(name, func(w io.Writer) error { _, err := io.Copy(w, r); return err }); err != nil {
			t.Fatal(err)
		}
	}
	if err := b.Add("telemetry", func(w io.Writer) error { _, err := w.Write([]byte("not a collector")); return err }); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if _, err := b.WriteTo(&out); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestWorkerArmsMatchBatch: one worker serves every request from the
// same arms and the same resemble-t and sbp-e controllers, reset in
// place between requests, across a long run, short ensemble and solo
// runs under several seeds, an injected worker panic (after which the
// replacement loop builds new arms and controllers) and a resume that
// restores the arms and controller mid-run before falling back to a
// scratch run. Every response and the merged window stream must be
// byte-identical to fresh BuildSource + sim.Runner runs of the same
// requests.
func TestWorkerArmsMatchBatch(t *testing.T) {
	store := testStore(t)
	badReq := Request{Workload: "433.milc", Controller: "resemble-t", Accesses: 1500, Seed: 3}
	reqs := []Request{
		// Long enough to grow ISB's and Domino's tables past their
		// initial sizes, so later Resets must shrink them back.
		{Workload: "433.milc", Controller: "resemble-t", Accesses: 20000},
		{Workload: "433.milc", Controller: "resemble-t", Accesses: 1000},
		{Workload: "471.omnetpp", Controller: "sbp-e", Accesses: 1200, Seed: 2},
		{Workload: "433.milc", Controller: "bo", Accesses: 1000},
		{Workload: "471.omnetpp", Controller: "isb", Accesses: 1100},
		{Workload: "433.milc", Controller: "resemble-t", Accesses: 900}, // panics
		{Workload: "471.omnetpp", Controller: "resemble-t", Accesses: 1000, Seed: 1},
		badReq,
		{Workload: "471.omnetpp", Controller: "domino", Accesses: 1300},
		{Workload: "433.milc", Controller: "spp", Accesses: 1000},
		{Workload: "471.omnetpp", Controller: "resemble", Accesses: 400},
		{Workload: "433.milc", Controller: "sbp-e", Accesses: 1000},
		{Workload: "433.milc", Controller: "resemble-t", Accesses: 1000, Seed: 4},
		{Workload: "471.omnetpp", Controller: "sbp-e", Accesses: 1100, Seed: 5},
		{Workload: "471.omnetpp", Controller: "resemble-t", Accesses: 1200, Seed: 6},
		{Workload: "433.milc", Controller: "resemble-t", Accesses: 1000, Seed: 7},
		{Workload: "433.milc", Controller: "sbp-e", Accesses: 900, Seed: 7},
	}
	const panics = 5 // index of the request the injected panic hits

	batchTel, err := telemetry.New(telemetry.Config{KeepWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := New(Config{DefaultAccesses: 2000, Telemetry: batchTel})
	if err != nil {
		t.Fatal(err)
	}
	// Tagged, so the store GC that follows each completed run keeps it.
	id, err := store.PutTagged(cas.KindCheckpoint, badResumeBlob(t, ref, badReq), "test/bad-resume")
	if err != nil {
		t.Fatal(err)
	}
	reqs[7].ResumeFrom = id.String()

	svcTel, err := telemetry.New(telemetry.Config{KeepWindows: true})
	if err != nil {
		t.Fatal(err)
	}
	chaos := &Chaos{PanicEvery: panics + 1}
	s := startService(t, func(c *Config) {
		c.Workers = 1
		c.Telemetry = svcTel
		c.Store = store
		c.Chaos = chaos
	})
	var got []Response
	for i, req := range reqs {
		req.ReturnWindows = true
		status, resp := post(t, s, req)
		if i == panics {
			if status != http.StatusInternalServerError {
				t.Fatalf("request %d: status %d, want the injected panic's 500", i, status)
			}
			chaos.Stop()
			continue
		}
		if status != http.StatusOK {
			t.Fatalf("request %d: status %d (%s)", i, status, resp.Error)
		}
		resp.DurationMS, resp.CheckpointID = 0, ""
		got = append(got, resp)
	}
	if err := s.Close(); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if st := s.Stats(); st.Restarts != 1 || st.ResumeFallbacks != 1 || st.Resumes != 0 {
		t.Fatalf("stats = %+v, want 1 restart and 1 resume fallback", st)
	}

	var want []Response
	for i, req := range reqs {
		if i == panics {
			continue
		}
		w, err := trace.Lookup(req.Workload)
		if err != nil {
			t.Fatal(err)
		}
		tr := ref.cfg.Traces.Get(w, req.Accesses, w.Seed+req.Seed)
		src, probe, armIdx, _, err := ref.buildSource(req)
		if err != nil {
			t.Fatal(err)
		}
		child := batchTel.Child()
		res, err := ref.runner.With(sim.WithTelemetry(child)).Run(tr, src)
		if err != nil {
			t.Fatalf("batch run %d: %v", i, err)
		}
		batchTel.Merge(child)
		r := Response{
			Workload: res.Workload, Controller: req.Controller, Accesses: len(tr.Records),
			Seed: req.Seed, IPC: res.IPC, MPKI: res.MPKI, Accuracy: res.Accuracy,
			Coverage: res.Coverage, Instructions: res.Instructions, LLCMisses: res.LLCMisses,
			PrefetchesIssued: res.PrefetchesIssued, UsefulPrefetches: res.UsefulPrefetches,
			DroppedPrefetches: res.DroppedPrefetches, Windows: child.Windows(),
		}
		if probe != nil {
			for j, name := range armIdx {
				if probe.ArmMasked(j) {
					r.MaskedArms = append(r.MaskedArms, name)
				}
			}
		}
		want = append(want, r)
	}
	for i := range want {
		g, _ := json.Marshal(got[i])
		w, _ := json.Marshal(want[i])
		if !bytes.Equal(g, w) {
			t.Fatalf("response %d (%s/%s) differs from the batch reference:\n got %.300s\nwant %.300s",
				i, want[i].Workload, want[i].Controller, g, w)
		}
	}
	g, _ := json.Marshal(svcTel.Windows())
	w, _ := json.Marshal(batchTel.Windows())
	if len(svcTel.Windows()) == 0 || !bytes.Equal(g, w) {
		t.Fatalf("service windows diverge from batch: %d vs %d windows",
			len(svcTel.Windows()), len(batchTel.Windows()))
	}
}

// TestHeldControllerFollowsConfig: a worker restarts its held
// resemble-t only for a request whose controller configuration differs
// from the held one's at most in the seed; a request under another
// configuration gets a new controller. Each response must equal the
// fresh BuildSource run of the same request.
func TestHeldControllerFollowsConfig(t *testing.T) {
	hashBits := func(req Request) core.Config {
		cfg := core.DefaultConfig()
		cfg.Seed = 1 + req.Seed
		cfg.TableHashBits = 4 + 4*uint(req.Seed%2)
		return cfg
	}
	ref, err := New(Config{ControllerConfig: hashBits})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) {
		c.Workers = 1
		c.ControllerConfig = hashBits
	})
	for _, seed := range []int64{0, 2, 1, 3, 0} {
		req := Request{Workload: "433.milc", Controller: "resemble-t", Accesses: 1000, Seed: seed}
		status, got := post(t, s, req)
		if status != http.StatusOK {
			t.Fatalf("seed %d: status %d (%s)", seed, status, got.Error)
		}
		w, err := trace.Lookup(req.Workload)
		if err != nil {
			t.Fatal(err)
		}
		src, _, _, _, err := ref.buildSource(req)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.runner.Run(ref.cfg.Traces.Get(w, req.Accesses, w.Seed+req.Seed), src)
		if err != nil {
			t.Fatal(err)
		}
		if got.IPC != want.IPC || got.PrefetchesIssued != want.PrefetchesIssued || got.UsefulPrefetches != want.UsefulPrefetches {
			t.Errorf("seed %d: served ipc %v, %d issued, %d useful; fresh %v, %d, %d",
				seed, got.IPC, got.PrefetchesIssued, got.UsefulPrefetches, want.IPC, want.PrefetchesIssued, want.UsefulPrefetches)
		}
	}
}

// TestWarmSourceAllocs gates a warm request on the serving path: once
// a worker holds its arms and controllers and the simulator pool holds
// a simulator, building a resemble-t or sbp-e source for another
// 1,000-access request and running it allocates under 8 KiB. Building
// the controller and the simulator per request cost about 174 KB
// (resemble-t) and 132 KB (sbp-e); the arms' tables, rebuilt per
// request before the worker held them, another 586 KB.
func TestWarmSourceAllocs(t *testing.T) {
	const budget = 8 << 10
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	w, err := trace.Lookup("433.milc")
	if err != nil {
		t.Fatal(err)
	}
	tr := s.cfg.Traces.Get(w, 1000, w.Seed)
	arms := newArmSet()
	for _, ctrl := range []string{"resemble-t", "sbp-e"} {
		// The seed varies the controller, not the trace, so no request
		// generates a trace inside the measurement.
		request := func(seed int64) uint64 {
			req := Request{Workload: w.Name, Controller: ctrl, Accesses: len(tr.Records), Seed: seed}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			src, _, _, _, err := s.buildSourceFrom(req, arms)
			if err == nil {
				_, err = s.runner.Run(tr, src)
			}
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			return after.TotalAlloc - before.TotalAlloc
		}
		cold := request(0)
		// The least of ten warm requests: under the race detector
		// sync.Pool drops a random quarter of the simulators it is
		// given, and a dropped one is rebuilt.
		warm := request(1)
		for seed := int64(2); seed <= 10; seed++ {
			warm = min(warm, request(seed))
		}
		t.Logf("%s request: %d B cold, %d B warm", ctrl, cold, warm)
		if warm >= budget {
			t.Errorf("warm %s request allocated %d B, want < %d B", ctrl, warm, budget)
		}
	}
}

// TestRequestAllocBudget bounds what a 2,000-access resemble-t /v1/run
// request allocates over real HTTP, client and server sides together:
// connection, JSON codec, admission, source construction, the run and
// its response. Thirty sequential requests, the first of which builds
// the worker's arms and controller, average about 295 allocations
// each. The budget of
// 4,096 is broken by two allocations per simulated access, not by one
// (TestStepSteadyStateZeroAlloc holds the step to zero).
// ReadAllocCounters counts every object, tiny pointer-free ones packed
// into a shared 16-byte block included.
func TestRequestAllocBudget(t *testing.T) {
	const (
		budget   = 4096
		requests = 30
	)
	s, err := New(Config{Workers: 2, DefaultAccesses: 2000})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	body, _ := json.Marshal(Request{Workload: "433.milc", Controller: "resemble-t", Accesses: 2000})
	start := telemetry.ReadAllocCounters()
	for i := 0; i < requests; i++ {
		resp, err := http.Post("http://"+s.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d", i, resp.StatusCode)
		}
	}
	if allocs := (telemetry.ReadAllocCounters().Objects - start.Objects) / requests; allocs > budget {
		t.Errorf("a request allocates %d, budget %d", allocs, budget)
	}
}
