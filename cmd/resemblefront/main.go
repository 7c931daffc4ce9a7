// Command resemblefront is the cluster front door: one coordinator
// that consistent-hashes /v1/run requests across N resembled backends
// with active health probing, breaker-gated ejection and readmission,
// budgeted retry-with-failover, hedged requests for tail latency,
// bounded admission with shedding, and fleet-wide /metrics. Per-run
// telemetry windows ship back from the backends and merge in
// admission order, so a sharded fleet's windows.jsonl is
// byte-identical to one instance serving every request serially.
//
// Daemon mode:
//
//	resemblefront -addr 127.0.0.1:8320 \
//	    -backends 127.0.0.1:8321,127.0.0.1:8322,127.0.0.1:8323
//
// serves POST /v1/run plus the operator surface it shares with
// resembled (GET /healthz /readyz /metrics /metrics/history /stats
// /debug/incidents /debug/flightrec, POST /debug/incidents/capture
// /drain) until SIGINT/SIGTERM, then drains: admission closes,
// in-flight requests finish, and with -drain-backends the fleet is
// quiesced in address order.
//
// Incident demo:
//
//	resemblefront -soak -soak.artifacts DIR
//
// boots three in-process backends on a shared artifact store behind a
// front door, kills a run's owner mid-flight and wedges a backend, and
// writes the failover and wedge incident bundles and their stitched
// cross-process Chrome traces into DIR (`make incident-demo`). The
// cluster contracts themselves are pinned by the tests of
// internal/cluster.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"resemble/internal/cas"
	"resemble/internal/cluster"
	"resemble/internal/telemetry"
)

// options is the parsed command line, split out so flag handling is
// testable without exec'ing the binary.
type options struct {
	addr          string
	backends      []string
	replicas      int
	hedgeAfter    time.Duration
	retryBudget   float64
	maxAttempts   int
	inflight      int
	probeEvery    time.Duration
	probeTimeout  time.Duration
	timeout       time.Duration
	drainTimeout  time.Duration
	drainBackends bool
	storeDir      string
	telDir        string
	logLevel      string
	soak          bool
	soakArtifacts string
}

// parseFlags parses argv (without the program name) into options.
func parseFlags(args []string) (options, error) {
	var o options
	var backends string
	fs := flag.NewFlagSet("resemblefront", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	fs.StringVar(&o.addr, "addr", "127.0.0.1:8320", "front door listen address")
	fs.StringVar(&backends, "backends", "", "comma-separated resembled backend addresses (host:port,...)")
	fs.IntVar(&o.replicas, "replicas", cluster.DefaultReplicas, "virtual nodes per backend on the hash ring")
	fs.DurationVar(&o.hedgeAfter, "hedge-after", 0, "hedge a silent request on the next backend after this long (0 disables)")
	fs.Float64Var(&o.retryBudget, "retry-budget", 10, "failover token bucket capacity")
	fs.IntVar(&o.maxAttempts, "max-attempts", 0, "max distinct backends tried per request (0 = all)")
	fs.IntVar(&o.inflight, "inflight", 64, "max concurrently admitted requests before shedding")
	fs.DurationVar(&o.probeEvery, "probe-every", 500*time.Millisecond, "health probe interval per backend")
	fs.DurationVar(&o.probeTimeout, "probe-timeout", 2*time.Second, "health probe round-trip bound")
	fs.DurationVar(&o.timeout, "timeout", 120*time.Second, "per-request deadline across all attempts")
	fs.DurationVar(&o.drainTimeout, "drain-timeout", 30*time.Second, "graceful drain bound")
	fs.BoolVar(&o.drainBackends, "drain-backends", false, "quiesce the backends in address order when draining")
	fs.StringVar(&o.storeDir, "store-dir", "", "shared artifact store root (the same local-filesystem path the backends use; processes coordinate through an advisory lock in it); failover retries resume interrupted runs from its checkpoints (empty = scratch retries)")
	fs.StringVar(&o.telDir, "telemetry", "", "merged telemetry output directory (empty = off)")
	fs.StringVar(&o.logLevel, "log-level", "info", "structured logging on stderr (debug|info|warn|error; empty disables)")
	fs.BoolVar(&o.soak, "soak", false, "write the incident-demo artifacts to -soak.artifacts instead of serving")
	fs.StringVar(&o.soakArtifacts, "soak.artifacts", "", "directory for the incident demo's bundles and stitched Chrome traces")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	for _, b := range strings.Split(backends, ",") {
		if b = strings.TrimSpace(b); b != "" {
			o.backends = append(o.backends, b)
		}
	}
	if o.soak && o.soakArtifacts == "" {
		return o, fmt.Errorf("-soak needs -soak.artifacts")
	}
	if !o.soak && len(o.backends) == 0 {
		return o, fmt.Errorf("-backends is required (comma-separated host:port list)")
	}
	if o.retryBudget <= 0 {
		return o, fmt.Errorf("-retry-budget must be positive, got %v", o.retryBudget)
	}
	if o.hedgeAfter < 0 {
		return o, fmt.Errorf("-hedge-after must be non-negative, got %v", o.hedgeAfter)
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintf(os.Stderr, "resemblefront: %v\n", err)
		os.Exit(2)
	}

	logger, err := telemetry.NewLogger(os.Stderr, o.logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "resemblefront: %v\n", err)
		os.Exit(1)
	}

	if o.soak {
		if err := os.MkdirAll(o.soakArtifacts, 0o755); err == nil {
			err = runIncidentDemo(o.soakArtifacts, logf)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "resemblefront: incident demo: %v\n", err)
			os.Exit(1)
		}
		return
	}

	var tel *telemetry.Collector
	if o.telDir != "" {
		tel, err = telemetry.New(telemetry.Config{Dir: o.telDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "resemblefront: %v\n", err)
			os.Exit(1)
		}
	}

	var store *cas.Store
	if o.storeDir != "" {
		st, rep, err := cas.Open(o.storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "resemblefront: store: %v\n", err)
			os.Exit(1)
		}
		if !rep.Clean() {
			logf("resemblefront: store recovery sweep repaired: %s", rep)
		}
		store = st
	}

	f, err := cluster.New(cluster.Config{
		Addr:           o.addr,
		Backends:       o.backends,
		Replicas:       o.replicas,
		HedgeAfter:     o.hedgeAfter,
		RetryBudget:    o.retryBudget,
		MaxAttempts:    o.maxAttempts,
		MaxInFlight:    o.inflight,
		RequestTimeout: o.timeout,
		DrainTimeout:   o.drainTimeout,
		DrainBackends:  o.drainBackends,
		Store:          store,
		Probe: cluster.ProbeConfig{
			Interval: o.probeEvery,
			Timeout:  o.probeTimeout,
		},
		Telemetry: tel,
		Logf:      logf,
		Logger:    logger,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "resemblefront: %v\n", err)
		os.Exit(1)
	}
	if err := f.Start(); err != nil {
		fmt.Fprintf(os.Stderr, "resemblefront: %v\n", err)
		os.Exit(1)
	}
	logf("resemblefront: routing on %s across %d backends (pid %d); SIGINT/SIGTERM drains",
		f.Addr(), len(o.backends), os.Getpid())

	sigs := make(chan os.Signal, 2)
	signal.Notify(sigs, syscall.SIGINT, syscall.SIGTERM)
	select {
	case sig := <-sigs:
		logf("resemblefront: %v received; draining", sig)
		go func() {
			<-sigs
			logf("resemblefront: second signal; exiting without full drain")
			os.Exit(1)
		}()
	case <-f.Drained():
		logf("resemblefront: drained via POST /drain; exiting")
	}
	if err := f.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "resemblefront: drain: %v\n", err)
		os.Exit(1)
	}
	if tel != nil {
		if err := tel.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "resemblefront: telemetry: %v\n", err)
			os.Exit(1)
		}
	}
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
}
