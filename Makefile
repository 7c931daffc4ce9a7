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

# Chaos/soak harness: boots service instances, injects faults, asserts
# degradation + recovery + clean drain + no goroutine leaks (DESIGN.md §9).
soak:
	$(GO) run ./cmd/resembled -soak

# Cluster chaos harness: 3 in-process backends behind a resemblefront
# coordinator; kills/wedges/restarts backends mid-stream and asserts
# failover, hedging, readmission, ordered drain, zero lost requests and
# byte-identical merged telemetry (DESIGN.md §12). Includes the durable
# store phases (DESIGN.md §14): a run killed mid-flight resumes from its
# last checkpoint on the next ring backend with byte-identical windows,
# and every store-corruption arm is detected and quarantined.
cluster-soak:
	$(GO) run -race ./cmd/resemblefront -soak

# Incident flight-recorder demo: the cluster chaos harness with artifact
# capture. Fails unless the kill phase produced a fleet incident bundle
# with a failover trigger and a stitched cross-process Chrome trace that
# validates (DESIGN.md §15). ARTIFACTS=DIR keeps the artifacts.
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
