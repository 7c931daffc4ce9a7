package telemetry

import (
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"path/filepath"
	"runtime"
	rpprof "runtime/pprof"
)

// StartProfiles begins a CPU profile written to dir/cpu.pprof and
// returns a stop function that ends it and captures a post-GC heap
// profile to dir/heap.pprof. The directory is created if needed.
func StartProfiles(dir string) (func() error, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cpu, err := os.Create(filepath.Join(dir, "cpu.pprof"))
	if err != nil {
		return nil, err
	}
	stop, err := StartProfilesTo(cpu, func() (io.WriteCloser, error) {
		return os.Create(filepath.Join(dir, "heap.pprof"))
	})
	if err != nil {
		cpu.Close()
		return nil, err
	}
	return func() error {
		err := stop()
		if cerr := cpu.Close(); cerr != nil && err == nil {
			err = cerr
		}
		return err
	}, nil
}

// StartProfilesTo is StartProfiles with injected destinations: the CPU
// profile streams to cpu, and the stop function writes a post-GC heap
// profile through the writer openHeap returns (a nil openHeap skips
// the heap capture). Only one CPU profile can run per process, so a
// second call before stop fails. Callers own closing cpu.
func StartProfilesTo(cpu io.Writer, openHeap func() (io.WriteCloser, error)) (func() error, error) {
	if err := rpprof.StartCPUProfile(cpu); err != nil {
		return nil, err
	}
	return func() error {
		rpprof.StopCPUProfile()
		if openHeap == nil {
			return nil
		}
		heap, herr := openHeap()
		if herr != nil {
			return herr
		}
		// WriteHeapProfile swallows sink write errors (the profile
		// builder flushes without checking), which would leave a
		// silently truncated heap.pprof — record them ourselves.
		ew := &errorRecordingWriter{w: heap}
		var err error
		runtime.GC()
		if werr := rpprof.WriteHeapProfile(ew); werr != nil {
			err = werr
		}
		if err == nil {
			err = ew.err
		}
		if cerr := heap.Close(); cerr != nil && err == nil {
			err = cerr
		}
		return err
	}, nil
}

// errorRecordingWriter remembers the first write error, for sinks
// whose consumers discard them.
type errorRecordingWriter struct {
	w   io.Writer
	err error
}

func (e *errorRecordingWriter) Write(p []byte) (int, error) {
	n, err := e.w.Write(p)
	if err != nil && e.err == nil {
		e.err = err
	}
	return n, err
}

// ServePprof serves the net/http/pprof handlers on addr (e.g. ":6060")
// in a background goroutine. It binds synchronously so address errors
// are reported to the caller, and returns the bound address (useful
// with ":0") together with the server, whose Shutdown/Close stops the
// listener and lets the serve goroutine exit (the service drains it;
// the service's goroutine-leak test depends on this).
func ServePprof(addr string) (string, *http.Server, error) {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: mux}
	go func() { _ = srv.Serve(ln) }()
	return ln.Addr().String(), srv, nil
}
