package service

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	rpprof "runtime/pprof"
	"sort"
	"sync"
	"time"

	"resemble/internal/flatmap"
)

// Capture manager: on-disk CPU/heap profile captures the service takes
// of itself on demand (POST /debug/profile/capture). Each capture
// directory holds heap.pprof (post-GC), cpu.pprof (when a CPU window
// was requested and no other CPU profile was running) and a
// capture.json manifest stamping the sequence number, reason and the
// request-latency p99 at capture time; `go tool pprof` reads the
// profiles. The manager keeps the newest CaptureCap captures and
// removes the directories of older ones. Automatic captures belong to
// the flight recorder's triggers, whose incidents carry this list.

const (
	// CaptureCap is how many captures are kept on disk.
	CaptureCap = 8
	// captureCPUWindow is the default CPU-profile window per capture;
	// requests may override it with ?cpu_ms= (0 skips the CPU profile).
	captureCPUWindow = 2 * time.Second
)

// CaptureInfo is one capture's manifest, returned by the capture
// endpoints and written as capture.json inside the capture directory.
type CaptureInfo struct {
	Seq        int      `json:"seq"`
	Reason     string   `json:"reason"`
	Start      string   `json:"start"` // RFC3339Nano
	DurationMS float64  `json:"duration_ms"`
	Dir        string   `json:"dir"`
	Files      []string `json:"files"`
	// P99Ms is the request-latency p99 at capture time.
	P99Ms float64 `json:"p99_ms,omitempty"`
	Error string  `json:"error,omitempty"`
}

// captureManager owns the retained captures. All methods are safe for
// concurrent use.
type captureManager struct {
	dir  string
	logf func(format string, args ...any)

	mu   sync.Mutex
	seq  int
	list flatmap.Queue[CaptureInfo]
}

func newCaptureManager(dir string, logf func(string, ...any)) *captureManager {
	return &captureManager{dir: dir, logf: logf}
}

// List returns the retained capture manifests, oldest first.
func (m *captureManager) List() []CaptureInfo {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]CaptureInfo(nil), m.list.Live()...)
}

// Count returns how many captures have been taken in total.
func (m *captureManager) Count() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.seq
}

// Capture takes one capture: post-GC heap profile always, plus a CPU
// window of cpuDur (capped at 10s; negative means captureCPUWindow, 0
// skips CPU). p99Ms is stamped into the manifest.
func (m *captureManager) Capture(reason string, cpuDur time.Duration, p99Ms float64) (CaptureInfo, error) {
	m.mu.Lock()
	m.seq++
	info := CaptureInfo{
		Seq:    m.seq,
		Reason: reason,
		Start:  time.Now().UTC().Format(time.RFC3339Nano),
		P99Ms:  p99Ms,
	}
	info.Dir = filepath.Join(m.dir, fmt.Sprintf("capture-%04d", info.Seq))
	m.mu.Unlock()

	began := time.Now()
	if cpuDur < 0 {
		cpuDur = captureCPUWindow
	}
	if cpuDur > 10*time.Second {
		cpuDur = 10 * time.Second
	}
	if err := os.MkdirAll(info.Dir, 0o755); err != nil {
		return info, err
	}

	// CPU first (the window dominates capture latency), then the heap
	// snapshot so it reflects the end of the window.
	if cpuDur > 0 {
		if err := m.captureCPU(info.Dir, cpuDur); err != nil {
			// Another profiler owns the CPU (bench -profile, StartProfiles):
			// note it and keep the heap capture.
			info.Error = fmt.Sprintf("cpu profile skipped: %v", err)
		} else {
			info.Files = append(info.Files, "cpu.pprof")
		}
	}
	if err := writeHeapProfile(filepath.Join(info.Dir, "heap.pprof")); err != nil {
		return info, err
	}
	info.Files = append(info.Files, "heap.pprof")
	sort.Strings(info.Files)
	info.DurationMS = float64(time.Since(began)) / float64(time.Millisecond)

	if err := writeCaptureManifest(info); err != nil {
		return info, err
	}
	m.commit(info)
	m.logf("service: profile capture %d (%s) -> %s", info.Seq, reason, info.Dir)
	return info, nil
}

// commit retains info, removing the directories of the captures it
// evicts.
func (m *captureManager) commit(info CaptureInfo) {
	m.mu.Lock()
	m.list.Push(info)
	var evict []string
	for m.list.Len() > CaptureCap {
		evict = append(evict, m.list.Pop().Dir)
	}
	m.mu.Unlock()
	for _, dir := range evict {
		if err := os.RemoveAll(dir); err != nil {
			m.logf("service: capture eviction: %v", err)
		}
	}
}

// captureCPU profiles CPU into dir/cpu.pprof for d.
func (m *captureManager) captureCPU(dir string, d time.Duration) error {
	f, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return err
	}
	if err := rpprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	time.Sleep(d)
	rpprof.StopCPUProfile()
	return f.Close()
}

// writeHeapProfile snapshots the post-GC heap to path.
func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	err = rpprof.WriteHeapProfile(f)
	if cerr := f.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

func writeCaptureManifest(info CaptureInfo) error {
	b, err := json.MarshalIndent(info, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(info.Dir, "capture.json"), append(b, '\n'), 0o644)
}
