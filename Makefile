GO ?= go
JOBS ?= 0

.PHONY: build test check bench fmt fault-matrix suite soak cluster-soak incident-demo

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Full CI gate: gofmt, vet, race-enabled tests for the
# concurrency-sensitive packages, and the whole suite.
check:
	sh scripts/check.sh

# Overhead benchmarks for the telemetry layer (see DESIGN.md).
bench:
	$(GO) test -run xxx -bench 'BenchmarkTelemetryOverhead' ./internal/telemetry/
	$(GO) test -run xxx -bench 'BenchmarkSimulator' -benchtime 30x .

fmt:
	gofmt -w .

# Service chaos suite: the race-enabled internal/service tests that own
# what the soak harness once asserted: zero-fault batch equivalence with
# a validating Chrome trace, stuck arm -> breaker trip -> incident,
# shedding with /readyz and service_ready flipping 1 -> 0 -> 1, breaker
# recovery, clean drains, and no leaked goroutines (DESIGN.md §9).
soak:
	$(GO) test -race -count 1 -run 'Chaos|Drain|GoroutineLeak|HappyPathMatchesBatch|PprofLifecycle|PhaseAllocCounters|ProfileCaptureEndpoint|IncidentEndpoints|MetricsHistoryEndpoint' ./internal/service/

# Cluster chaos suite: the race-enabled internal/cluster tests for
# failover, kill-mid-run resume with a stitched trace and a failover
# bundle, hedging, ejection and readmission, ordered drain, zero lost
# requests, fleet windows byte-identical to a single instance, and no
# leaked goroutines (DESIGN.md §12, §14).
cluster-soak:
	$(GO) test -race -count 1 -run 'Failover|Hedge|Health|Drain|Fleet|GoroutineLeak' ./internal/cluster/

# Incident flight-recorder demo: resemblefront -soak kills a run
# mid-flight and wedges a backend, then writes the fleet bundles and
# stitched Chrome traces. Fails unless the kill phase produced a bundle
# with a failover trigger and every artifact exists (DESIGN.md §15).
# ARTIFACTS=DIR keeps the artifacts.
incident-demo:
	sh scripts/incident_demo.sh $(ARTIFACTS)

# Graceful-degradation evaluation: masked vs unmasked ensemble vs solo
# under each injected fault class (see DESIGN.md).
fault-matrix:
	$(GO) run ./cmd/experiments -exp faults

# Full evaluation sweep on the worker pool. JOBS=0 uses every CPU;
# JOBS=1 is the serial reference (outputs are identical either way).
suite:
	$(GO) run ./cmd/experiments -exp all -jobs $(JOBS) -progress
