// Command resembled runs the ReSemble simulation engine as a
// resilient long-running service:
//
//	resembled -addr 127.0.0.1:8080 -workers 4 -store-dir store
//
// serves POST /v1/run and GET /v1/explain plus the operator surface
// it shares with resemblefront (GET /healthz /readyz /metrics
// /metrics/history /stats /debug/incidents /debug/flightrec, POST
// /debug/incidents/capture /drain) until SIGINT/SIGTERM, then drains
// gracefully: admission closes and in-flight simulations finish.
// The chaos, drain and leak contracts are pinned by the tests of
// internal/service.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"resemble/internal/cas"
	"resemble/internal/service"
	"resemble/internal/telemetry"
	"resemble/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", "127.0.0.1:8321", "listen address")
		workers   = flag.Int("workers", 2, "simulation worker count")
		queue     = flag.Int("queue", 32, "admission queue depth")
		timeout   = flag.Duration("timeout", 60*time.Second, "per-request deadline")
		drainT    = flag.Duration("drain-timeout", 30*time.Second, "graceful drain bound")
		storeDir  = flag.String("store-dir", "", "durable artifact store root (empty = off): runs checkpoint into it, /v1/run accepts resume_from, and the trace cache gains a content-addressed disk tier; safe to share with other resembled/resemblefront processes on a local filesystem")
		runCkp    = flag.Int("run-checkpoint-every", 0, "accesses between per-run store checkpoints when -store-dir is set (0 = engine default)")
		accesses  = flag.Int("accesses", 20000, "default trace length per request")
		telDir    = flag.String("telemetry", "", "telemetry output directory (empty = off)")
		chromeOut = flag.String("trace-chrome", "", "write the span trace as Chrome trace-event JSON (chrome://tracing, Perfetto) to this file on exit")
		explainN  = flag.Int("explain-sample", 32, "RL decision explainability: record 1 in N decisions for /v1/explain (0 disables)")
		logLevel  = flag.String("log-level", "info", "structured request/lifecycle logging on stderr (debug|info|warn|error; empty disables)")
		pprofAddr = flag.String("pprof", "", "serve net/http/pprof on this address (empty = off); drained with the service")
		profDir   = flag.String("profile-dir", "", "enable the profile capture manager (POST /debug/profile/capture) writing under this directory")
		allocAttr = flag.Bool("alloc-attribution", true, "per-phase allocation attribution in telemetry (requires a telemetry sink to surface)")
	)
	flag.Parse()

	logger, err := telemetry.NewLogger(os.Stderr, *logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "resembled: %v\n", err)
		os.Exit(1)
	}

	var tel *telemetry.Collector
	if *telDir != "" || *chromeOut != "" || *explainN > 0 {
		tel, err = telemetry.New(telemetry.Config{
			Dir:              *telDir,
			ChromeOut:        *chromeOut,
			ExplainSample:    *explainN,
			AllocAttribution: *allocAttr,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "resembled: %v\n", err)
			os.Exit(1)
		}
	}

	var store *cas.Store
	if *storeDir != "" {
		st, rep, err := cas.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "resembled: store: %v\n", err)
			os.Exit(1)
		}
		if !rep.Clean() {
			logf("resembled: store recovery sweep repaired: %s", rep)
		}
		store = st
		// Give trace synthesis a durable second tier: one generation of
		// each (workload, length, seed) per machine, not per process.
		trace.Shared().AttachStore(store)
	}

	s, err := service.New(service.Config{
		Addr:               *addr,
		Workers:            *workers,
		QueueDepth:         *queue,
		RequestTimeout:     *timeout,
		DrainTimeout:       *drainT,
		DefaultAccesses:    *accesses,
		Store:              store,
		RunCheckpointEvery: *runCkp,
		Telemetry:          tel,
		Logger:             logger,
		PprofAddr:          *pprofAddr,
		ProfileDir:         *profDir,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "resembled: %v\n", err)
		os.Exit(1)
	}
	if err := s.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "resembled: %v\n", err)
		os.Exit(1)
	}
	logf("resembled: serving on %s (pid %d); SIGINT/SIGTERM drains", s.Addr(), os.Getpid())

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		logf("resembled: %v received; draining", sig)
		// A second signal aborts the drain.
		go func() {
			<-sigs
			logf("resembled: second signal; exiting without full drain")
			os.Exit(1)
		}()
	case <-s.Drained():
		// POST /drain already ran the full drain; Close below is an
		// idempotent no-op and the process exits instead of lingering.
		logf("resembled: drained via POST /drain; exiting")
	}
	if err := s.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "resembled: drain: %v\n", err)
		os.Exit(1)
	}
	if tel != nil {
		if err := tel.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "resembled: telemetry: %v\n", err)
			os.Exit(1)
		}
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
