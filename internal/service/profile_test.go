package service

import (
	"compress/gzip"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"resemble/internal/telemetry"
)

// TestProfileCaptureEndpoint: POST /debug/profile/capture takes a
// manifest-stamped capture whose heap profile is a non-empty gzip
// stream, GET lists it, and the list evicts oldest-first.
func TestProfileCaptureEndpoint(t *testing.T) {
	dir := t.TempDir()
	s := startService(t, func(c *Config) { c.ProfileDir = dir })

	capture := func() CaptureInfo {
		t.Helper()
		resp, err := http.Post("http://"+s.Addr()+"/debug/profile/capture?cpu_ms=20", "", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var info CaptureInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("capture status %d (%+v)", resp.StatusCode, info)
		}
		return info
	}

	first := capture()
	if first.Seq != 1 || first.Reason == "" || first.Start == "" {
		t.Errorf("manifest not stamped: %+v", first)
	}
	// The capture directory holds the profiles plus capture.json, and
	// the heap profile is the gzip stream `go tool pprof` reads.
	f, err := os.Open(filepath.Join(first.Dir, "heap.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("heap profile is not gzip: %v", err)
	}
	b, err := io.ReadAll(zr)
	f.Close()
	if err != nil || len(b) == 0 {
		t.Errorf("heap profile decompresses to %d bytes (err %v)", len(b), err)
	}
	if _, err := os.Stat(filepath.Join(first.Dir, "capture.json")); err != nil {
		t.Errorf("capture.json missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(first.Dir, "cpu.pprof")); err != nil {
		t.Errorf("cpu.pprof missing: %v (info: %+v)", err, first)
	}

	// Keeping the newest CaptureCap: the next CaptureCap captures
	// evict only the first one's directory.
	var second, last CaptureInfo
	for i := 0; i < CaptureCap; i++ {
		last = capture()
		if i == 0 {
			second = last
		}
	}
	if last.Seq != CaptureCap+1 {
		t.Errorf("seq = %d, want %d", last.Seq, CaptureCap+1)
	}
	if _, err := os.Stat(first.Dir); !os.IsNotExist(err) {
		t.Errorf("oldest capture not evicted: stat err = %v", err)
	}
	if _, err := os.Stat(second.Dir); err != nil {
		t.Errorf("second capture evicted too early: %v", err)
	}

	resp, err := http.Get("http://" + s.Addr() + "/debug/profile/captures")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var list struct {
		Count    int           `json:"count"`
		Captures []CaptureInfo `json:"captures"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	if list.Count != CaptureCap || len(list.Captures) != CaptureCap || list.Captures[0].Seq != 2 {
		t.Errorf("capture list = %+v, want captures 2..%d", list, CaptureCap+1)
	}
}

// TestProfileRoutesAbsentWhenDisabled: without ProfileDir the debug
// routes do not exist.
func TestProfileRoutesAbsentWhenDisabled(t *testing.T) {
	s := startService(t, nil)
	resp, err := http.Post("http://"+s.Addr()+"/debug/profile/capture", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("capture route on disabled service: status %d, want 404", resp.StatusCode)
	}
}

// TestServicePprofLifecycle: Config.PprofAddr serves the pprof index
// on a separate listener which drain shuts down.
func TestServicePprofLifecycle(t *testing.T) {
	s := startService(t, func(c *Config) { c.PprofAddr = "127.0.0.1:0" })
	addr := s.PprofAddr()
	if addr == "" {
		t.Fatal("pprof address empty after Start")
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatalf("pprof index: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/debug/pprof/"); err == nil {
		t.Error("pprof server still serving after drain")
	}
}

// TestPhaseAllocCountersOnMetrics: with AllocAttribution enabled the
// exposition carries per-phase allocation counter families labeled by
// phase, covering the request → sim span tree.
func TestPhaseAllocCountersOnMetrics(t *testing.T) {
	tel, err := telemetry.New(telemetry.Config{AllocAttribution: true})
	if err != nil {
		t.Fatal(err)
	}
	s := startService(t, func(c *Config) { c.Telemetry = tel })
	if status, out := post(t, s, Request{Workload: "433.milc", Controller: "resemble-t"}); status != http.StatusOK {
		t.Fatalf("run: status %d (%s)", status, out.Error)
	}

	resp, err := http.Get("http://" + s.Addr() + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	samples, err := telemetry.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("/metrics fails the exposition grammar: %v", err)
	}
	phases := map[string]float64{}
	bytesByPhase := map[string]float64{}
	for _, smp := range samples {
		switch smp.Name {
		case "phase_allocs_count_total":
			phases[smp.Labels["phase"]] = smp.Value
		case "phase_allocs_bytes_total":
			bytesByPhase[smp.Labels["phase"]] = smp.Value
		}
	}
	for _, want := range []string{"request", "worker.serve", "sim.run", "sim.simulate", "window.commit"} {
		if phases[want] < 1 {
			t.Errorf("phase %q missing from exposition (phases: %v)", want, phases)
		}
	}
	if bytesByPhase["sim.run"] <= 0 {
		t.Errorf("sim.run alloc bytes = %v, want > 0", bytesByPhase["sim.run"])
	}
}
