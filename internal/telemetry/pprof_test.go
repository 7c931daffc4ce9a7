package telemetry_test

import (
	"compress/gzip"
	"errors"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"resemble/internal/faults"
	"resemble/internal/telemetry"
)

// TestStartProfilesWritesDecodableProfiles: the happy path produces
// cpu.pprof and heap.pprof, and the heap profile is a gzip stream
// holding a non-empty profile (what `go tool pprof` reads).
func TestStartProfilesWritesDecodableProfiles(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "prof")
	stop, err := telemetry.StartProfiles(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cpu.pprof", "heap.pprof"} {
		if fi, err := os.Stat(filepath.Join(dir, name)); err != nil || fi.Size() == 0 {
			t.Errorf("%s: err=%v", name, err)
		}
	}
	f, err := os.Open(filepath.Join(dir, "heap.pprof"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		t.Fatalf("heap profile is not gzip: %v", err)
	}
	if b, err := io.ReadAll(zr); err != nil || len(b) == 0 {
		t.Errorf("heap profile decompresses to %d bytes (err %v)", len(b), err)
	}
}

// TestStartProfilesUnwritableDir: a regular file where the profile
// directory should go fails up front, before any profiling starts.
func TestStartProfilesUnwritableDir(t *testing.T) {
	blocker := filepath.Join(t.TempDir(), "blocker")
	if err := os.WriteFile(blocker, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.StartProfiles(filepath.Join(blocker, "sub")); err == nil {
		t.Fatal("StartProfiles into a file-blocked path succeeded")
	}
	// The failed call must not leave a CPU profile running.
	stop, err := telemetry.StartProfilesTo(io.Discard, nil)
	if err != nil {
		t.Fatalf("CPU profile left running after failed StartProfiles: %v", err)
	}
	if err := stop(); err != nil {
		t.Fatal(err)
	}
}

// TestStartProfilesDouble: only one CPU profile can run per process;
// the second start fails without disturbing the first.
func TestStartProfilesDouble(t *testing.T) {
	stop, err := telemetry.StartProfiles(filepath.Join(t.TempDir(), "a"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := telemetry.StartProfiles(filepath.Join(t.TempDir(), "b")); err == nil {
		t.Fatal("second concurrent StartProfiles succeeded")
	}
	if err := stop(); err != nil {
		t.Fatalf("first profile stop after rejected second start: %v", err)
	}
}

type nopWriteCloser struct{ io.Writer }

func (nopWriteCloser) Close() error { return nil }

// TestStartProfilesHeapWriteFailure: a heap sink that fails mid-write
// surfaces the injected error from stop.
func TestStartProfilesHeapWriteFailure(t *testing.T) {
	injected := errors.New("disk full")
	stop, err := telemetry.StartProfilesTo(io.Discard, func() (io.WriteCloser, error) {
		return nopWriteCloser{&faults.FailingWriter{W: io.Discard, FailAfter: 0, Err: injected}}, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); !errors.Is(err, injected) {
		t.Fatalf("stop error = %v, want injected %v", err, injected)
	}
}

// TestStartProfilesHeapOpenFailure: failing to open the heap sink at
// stop time is reported too.
func TestStartProfilesHeapOpenFailure(t *testing.T) {
	injected := errors.New("no sink")
	stop, err := telemetry.StartProfilesTo(io.Discard, func() (io.WriteCloser, error) {
		return nil, injected
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := stop(); !errors.Is(err, injected) {
		t.Fatalf("stop error = %v, want injected %v", err, injected)
	}
}

// TestServePprofShutdown: ServePprof binds synchronously, serves the
// index, and stops serving once the returned server is shut down.
func TestServePprofShutdown(t *testing.T) {
	addr, srv, err := telemetry.ServePprof("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get("http://" + addr + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index status %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := http.Get("http://" + addr + "/debug/pprof/"); err == nil {
		t.Error("pprof endpoint alive after Close")
	}
	// Bad addresses fail synchronously.
	if _, _, err := telemetry.ServePprof("256.0.0.1:bad"); err == nil {
		t.Error("ServePprof on a bad address succeeded")
	}
}
