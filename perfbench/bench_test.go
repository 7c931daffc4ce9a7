package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"os"
	"strconv"
	"strings"
	"testing"

	"resemble/internal/telemetry"
)

// spec is the part of ../BENCHMARK.json the tests check against.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		t.Fatal(err)
	}
	return sp
}

// runBench runs the benchmark with a scratch workdir and returns its
// result line and the detail line before it.
func runBench(t *testing.T, args ...string) (result, map[string]any) {
	t.Helper()
	var out bytes.Buffer
	if err := run(append([]string{"-workdir", t.TempDir()}, args...), &out); err != nil {
		t.Fatalf("run %v: %v", args, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if len(lines) < 2 {
		t.Fatalf("want a detail line and a result line, got %q", out.String())
	}
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("result line: %v", err)
	}
	var detail map[string]any
	if err := json.Unmarshal([]byte(lines[len(lines)-2]), &detail); err != nil {
		t.Fatalf("detail line: %v", err)
	}
	return res, detail
}

// A one-second run of every workload, timed and traced, emits exactly
// the metrics BENCHMARK.json names, each with its unit, with every op
// matching the reference. front-durable is covered too, although
// BENCHMARK.json leaves it out.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	sp := loadSpec(t)
	for _, w := range sp.Workloads {
		if _, err := lookupWorkload(w.Name); err != nil {
			t.Fatalf("BENCHMARK.json: %v", err)
		}
	}
	for _, w := range workloads {
		for _, traced := range []string{"0", "1"} {
			want := sp.EndToEnd
			if traced == "1" {
				want = sp.PerLayer
			}
			t.Run(w.name+"/trace="+traced, func(t *testing.T) {
				res, _ := runBench(t, "--workload", w.name, "--seed", "7", "--seconds", "1", "--trace", traced)
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
				}
				for _, m := range want {
					got, ok := res.Metrics[m.Name]
					switch {
					case !ok:
						t.Errorf("metric %s missing", m.Name)
					case got.Unit != m.Unit:
						t.Errorf("metric %s: unit %q, BENCHMARK.json says %q", m.Name, got.Unit, m.Unit)
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, BENCHMARK.json names %d", len(res.Metrics), len(want))
				}
				if traced == "0" {
					for name, m := range res.Metrics {
						if m.Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
						}
					}
				}
			})
		}
	}
}

// perturbReference rewrites the embedded reference with the ipc of
// every row matching (trace, controller) nudged, and restores it when
// the test ends. It returns how many rows changed.
func perturbReference(t *testing.T, traceName, controller string) int {
	t.Helper()
	orig := referenceCSV
	t.Cleanup(func() { referenceCSV = orig })
	rows, err := csv.NewReader(strings.NewReader(orig)).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, row := range rows[1:] {
		if row[0] != traceName || row[1] != controller {
			continue
		}
		ipc, err := strconv.ParseFloat(row[4], 64)
		if err != nil {
			t.Fatal(err)
		}
		row[4] = strconv.FormatFloat(ipc*(1+1e-12), 'g', -1, 64)
		n++
	}
	var buf bytes.Buffer
	w := csv.NewWriter(&buf)
	if err := w.WriteAll(rows); err != nil {
		t.Fatal(err)
	}
	referenceCSV = buf.String()
	return n
}

// An altered reference value makes exactly the ops that hit it count
// as failed, on the HTTP path and the in-process path alike.
func TestPerturbedReferenceCountsAsFailures(t *testing.T) {
	for _, tc := range []struct{ workload, trace, controller string }{
		{"serve-short", "433.milc", "sbp-e"},
		{"dqn-online", "gap.pr", "resemble"},
	} {
		t.Run(tc.workload, func(t *testing.T) {
			if n := perturbReference(t, tc.trace, tc.controller); n == 0 {
				t.Fatalf("no reference rows for %s/%s", tc.trace, tc.controller)
			}
			res, detail := runBench(t, "--workload", tc.workload, "--seed", "3", "--seconds", "2", "--trace", "0")
			if res.Correct {
				t.Error("run with a perturbed reference reported correct")
			}
			if res.Failed == 0 || res.Failed >= res.Attempted {
				t.Errorf("failed %d of %d: want some but not all ops to fail", res.Failed, res.Attempted)
			}
			errs, _ := detail["errors"].([]any)
			if len(errs) == 0 || !strings.Contains(errs[0].(string), tc.trace+"/"+tc.controller) {
				t.Errorf("errors %v do not name %s/%s", errs, tc.trace, tc.controller)
			}
		})
	}
}

// The traced run writes a Chrome trace that validates and holds a span
// for every replayed stage.
func TestTracedRunWritesValidChromeTrace(t *testing.T) {
	_, detail := runBench(t, "--workload", "front-durable", "--seed", "5", "--seconds", "1", "--trace", "1")
	path, _ := detail["chrome_trace"].(string)
	if path == "" {
		t.Fatal("detail line names no chrome_trace")
	}
	if err := telemetry.ValidateChromeTraceFile(path); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{"trace.get", "service.build_source", "sim.run", "cas.put",
		"cas.untag_gc", "http.service", "http.front"} {
		if !bytes.Contains(raw, []byte(`"name":"`+stage+`"`)) {
			t.Errorf("chrome trace has no %s span", stage)
		}
	}
}
