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
// same arms, reset in place between requests, across a long run, short
// ensemble and solo runs, an injected worker panic (after which the
// replacement loop builds new arms) and a resume that restores the arms
// mid-run before falling back to a scratch run. Every response and the
// merged window stream must be byte-identical to fresh BuildSource +
// sim.Runner runs of the same requests.
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

// TestWarmSourceAllocs gates source construction on the serving path:
// once a worker's arms exist, building a resemble-t source for another
// 1,000-access request resets them in place instead of allocating
// their tables (about 586 KB when built fresh).
func TestWarmSourceAllocs(t *testing.T) {
	s, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	req := Request{Workload: "433.milc", Controller: "resemble-t", Accesses: 1000}
	w, err := trace.Lookup(req.Workload)
	if err != nil {
		t.Fatal(err)
	}
	tr := s.cfg.Traces.Get(w, req.Accesses, w.Seed+req.Seed)
	arms := armSet{}
	build := func() (sim.Source, uint64) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		src, _, _, _, err := s.buildSourceFrom(req, arms)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		return src, after.TotalAlloc - before.TotalAlloc
	}
	src, cold := build()
	if _, err := s.runner.Run(tr, src); err != nil {
		t.Fatal(err)
	}
	src, warm := build()
	if _, err := s.runner.Run(tr, src); err != nil {
		t.Fatal(err)
	}
	t.Logf("source construction: %d B cold, %d B warm", cold, warm)
	if warm >= 32<<10 {
		t.Fatalf("warm source construction allocated %d B, want < 32 KiB", warm)
	}
}

// TestRequestAllocBudget bounds what a 2,000-access resemble-t /v1/run
// request allocates over real HTTP, client and server sides together:
// connection, JSON codec, admission, source construction, the run and
// its response. Thirty sequential requests, the first of which builds
// the worker's arms, average 320-385 allocations each. The budget of
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
