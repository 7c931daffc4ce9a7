#!/bin/sh
# check.sh — the repo's CI gate. Runs formatting, vet, the race-enabled
# test subset for the concurrency-sensitive packages, and the full test
# suite. Usage: scripts/check.sh (or `make check`).
set -eu

cd "$(dirname "$0")/.."

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== zero-alloc hot-path guards (race-enabled quick gate) =="
# The allocation-free serving/step contract (DESIGN.md §13): steady-state
# simulator stepping (bare, and under the tabular and SBP(E) ensembles
# with the real four arms) and fixed-point and float forward must not
# allocate, and Requantize must refresh parameters in place. Checkpoint bytes must
# not depend on map iteration order: two identical runs give identical
# blobs (the artifact store names them by hash). A service worker reuses
# its prefetcher arms and ensemble controllers across requests, and a
# run its simulator (DESIGN.md §9, §13): every arm's Reset must leave it
# byte-identical to a new one, and a warm request (source construction
# plus the run) must not rebuild the arms, controller or simulator. The optimized arms and
# ROB lookup must match reference models of the code they replaced
# (SPP's FIFO filter, Domino's Get-then-Put, BO's score rescan, the ROB
# binary search), suggestion for suggestion and byte for byte. Runs
# read the private L1D/L2 outcome from the trace's shared filter: every
# batch controller must match the full-hierarchy reference model, a
# checkpoint in the format that still carried L1D/L2 must resume to the
# uninterrupted result, and the simulator state loader must not panic.
# A whole baseline run, a pooled experiment and a service request stay
# within their allocation budgets, and a run's Chrome trace validates.
# The multi-core machine steps sim's cores over a shared LLC/DRAM: one
# core must equal a sim run exactly, and a 4-core mix must keep its
# recorded per-core results. Every source name must build the same
# source through the registry from each caller (-short leaves the DQN
# and LSTM sources to the full suite below).
go test -race -count 1 -run 'TestStepSteadyStateZeroAlloc|TestBaselineRunAllocBudget|TestRunChromeTraceValidates|TestCheckpointBytesDeterministic|TestRetireTimeOfMatchesBisect|TestFilterMatchesFullHierarchy|TestResumeFromOldFormatCheckpoint|FuzzSimLoadState' ./internal/sim/
go test -race -count 1 -run 'TestSingleCoreMatchesSim|TestSingleCoreSharedLLCIsMeasuredRegion|TestFourCoreFingerprint' ./internal/multicore/
go test -race -short -count 1 -run 'TestSourceFingerprints' ./internal/sources/ ./cmd/resemble/
go test -race -count 1 -run 'TestResetMatchesNew|TestFilterMatchesFIFO|TestOneProbeMatchesGetThenPut|TestRunningBestMatchesRescan' ./internal/prefetch/...
go test -race -count 1 -run 'TestWarmSourceAllocs|TestRequestAllocBudget' ./internal/service/
go test -race -count 1 -run 'TestPooledFig1cAllocBudget' ./internal/experiments/
go test -race -count 1 -run 'TestFIFO|TestQueue' ./internal/flatmap/
go test -race -count 1 -run 'TestFixedForwardIntoZeroAlloc|TestRequantizeTracksRetrainedWeights' ./internal/nn/

echo "== go test -race (telemetry, sim, multicore) =="
go test -race ./internal/telemetry/... ./internal/sim/... ./internal/multicore/...

echo "== flight recorder + metrics history + trace stitching (race-enabled quick gate) =="
# The incident/tracing layer (DESIGN.md §15): concurrent ring writes,
# history sampling, cross-process span stitching, and the jobs=1 vs
# jobs=N stitched span-tree equality contract. RouteContract runs the
# shared operator surface's routes against both daemons, so a route
# one daemon breaks fails here by name.
go test -race -count 1 -run 'FlightRecorder|MetricsHistory|AnchorSpans|AdoptSpans|SpanRefHeader' ./internal/telemetry/
go test -race -count 1 -run 'Stitched|Incident|FleetBundle|HedgeOutcome|MetricsHistory|RouteContract' ./internal/cluster/
go test -race -count 1 -run 'Incident|MetricsHistory|InboundTraceContext' ./internal/service/

echo "== go test -race (parallel engine, trace cache) =="
go test -race -short ./internal/experiments/... ./internal/trace/...

echo "== go test -race (resilience, service, cluster, artifact store) =="
go test -race ./internal/resilience/... ./internal/service/... ./internal/cluster/... ./internal/cas/...

echo "== durable artifact store crash-safety gates (DESIGN.md §14) =="
# SIGKILL mid-write must leave the store recoverable (torn temps
# quarantined, committed blobs intact), and the index parser must never
# panic or accept a corrupt index: a short live fuzz on top of the
# committed FuzzCASIndex corpus.
go test -race -count 1 -run 'TestSIGKILLMidWriteRecovery' ./internal/cas/
go test -run xxx -fuzz 'FuzzCASIndex' -fuzztime 10s ./internal/cas/

echo "== go test -race (fault tolerance) =="
go test -race -run 'Fault|Masking|Resume|Checkpoint' \
    ./internal/checkpoint/... ./internal/faults/... ./internal/experiments/...

echo "== pooled-path benchmark smoke =="
go test -run xxx -bench BenchmarkMatrixPool -benchtime 1x ./internal/experiments/

echo "== go test (fuzz corpus) =="
go test -run Fuzz ./...

echo "== disabled-telemetry hooks inline (DESIGN.md §10) =="
# Each nil-safe hook the overhead budget times keeps its nil check in a
# wrapper small enough to inline; a hook that grows past the inlining
# budget fails here by name instead of as a timing flake below.
inl=$(go build -gcflags=-m ./internal/telemetry/ 2>&1)
for fn in '(\*Counter)\.Inc' '(\*Collector)\.Trace' '(\*Collector)\.RunSpanChild' \
    '(\*Span)\.End' '(\*Collector)\.ExplainTick' \
    '(\*FlightRecorder)\.Note' '(\*FlightRecorder)\.Trigger' \
    '(\*History)\.Record' '(\*History)\.Len'; do
    if ! printf '%s\n' "$inl" | grep -q "can inline $fn\$"; then
        echo "not inlinable: $fn (split its body out; see DESIGN.md §10)" >&2
        exit 1
    fi
done

echo "== disabled-telemetry overhead budget (counters, trace, spans, explain, flight recorder, metrics history) =="
go test -run DisabledHotPath -count 1 ./internal/telemetry/

echo "== profiling round-trip (real allocs profile through pprofparse) =="
go test -run TestAllocsProfileRoundTrip -count 1 ./internal/pprofparse/

echo "== soak smoke (resembled chaos/soak harness, self-validated chrome trace) =="
tracetmp=$(mktemp -d)
trap 'rm -rf "$tracetmp"' EXIT
go run ./cmd/resembled -soak -trace-chrome "$tracetmp/soak-trace.json"

echo "== cluster soak smoke + incident demo (resemblefront chaos harness, race-enabled) =="
# Includes the kill-mid-run → resume-on-next-backend phase (byte-identity
# against a single instance) and the store-corruption arm audit. The
# incident_demo wrapper additionally fails unless the kill phase emitted
# a failover fleet bundle and a valid stitched cross-process Chrome
# trace (DESIGN.md §15).
sh scripts/incident_demo.sh "$tracetmp/incidents"

echo "== go test ./... =="
go test ./...

echo "== OK =="
