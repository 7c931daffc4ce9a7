package sources_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"sort"
	"testing"

	"resemble/internal/checkpoint"
	"resemble/internal/experiments"
	"resemble/internal/faults"
	"resemble/internal/prefetch"
	"resemble/internal/service"
	"resemble/internal/sim"
	"resemble/internal/trace"
)

// fingerprintAccesses is the trace length of every pinned run: long
// enough to train the controllers past warmup, short enough for the
// race-enabled gate.
const fingerprintAccesses = 6000

// fingerprintWorkloads are two of the benchmark's pattern classes:
// regular streaming and pointer chasing.
var fingerprintWorkloads = []string{"433.milc", "471.omnetpp"}

// sourceFingerprints pins what each source name builds through every
// entry point that turns names into sources, as the hash of a short
// run's Result fields (floats as bits) and, for a checkpoint.Stater
// source, its SaveState bytes after the run.
var sourceFingerprints = map[string]string{
	"experiments+faults/bo/433.milc":         "94368c7a1ec1db6d",
	"experiments+faults/domino/433.milc":     "acc5ee15efb6ae38",
	"experiments+faults/isb/433.milc":        "fd46970025fbff8a",
	"experiments+faults/resemble-t/433.milc": "cecb93b2d792afd5",
	"experiments+faults/resemble/433.milc":   "242e65c31f884160",
	"experiments+faults/sbp-e/433.milc":      "20e719b490e9ca92",
	"experiments+faults/spp/433.milc":        "55a30f14dbe131fc",
	"experiments/bo/433.milc":                "3128f6741922a424",
	"experiments/bo/471.omnetpp":             "283d825b89e4f0a8",
	"experiments/domino/433.milc":            "6cbbe305d7441b9a",
	"experiments/domino/471.omnetpp":         "13be0def46e5bcc8",
	"experiments/isb/433.milc":               "c42debbc650778a5",
	"experiments/isb/471.omnetpp":            "36ab3b6b988051fc",
	"experiments/resemble-t/433.milc":        "cf108fe3c8504e63",
	"experiments/resemble-t/471.omnetpp":     "4463403f20e8c218",
	"experiments/resemble/433.milc":          "cf52ae95971706c8",
	"experiments/resemble/471.omnetpp":       "467a3eef98f7c919",
	"experiments/sbp-e/433.milc":             "12441e061bb308c4",
	"experiments/sbp-e/471.omnetpp":          "160b5e5f2fa073d6",
	"experiments/spp/433.milc":               "f4923c944b3716ba",
	"experiments/spp/471.omnetpp":            "9d1535ce19c7ecfe",
	"service/bo/433.milc":                    "3128f6741922a424",
	"service/bo/471.omnetpp":                 "283d825b89e4f0a8",
	"service/domino/433.milc":                "6cbbe305d7441b9a",
	"service/domino/471.omnetpp":             "13be0def46e5bcc8",
	"service/isb/433.milc":                   "c42debbc650778a5",
	"service/isb/471.omnetpp":                "36ab3b6b988051fc",
	"service/none/433.milc":                  "82ea0a8771afeddb",
	"service/none/471.omnetpp":               "73ccc1bc8cb3bddd",
	"service/resemble-t/433.milc":            "d3e9c44cf30d9742",
	"service/resemble-t/471.omnetpp":         "47c23da7a55bf202",
	"service/resemble/433.milc":              "e76c2fca6df572d9",
	"service/resemble/471.omnetpp":           "12dd1a5d26a2dbc6",
	"service/sbp-e/433.milc":                 "12441e061bb308c4",
	"service/sbp-e/471.omnetpp":              "160b5e5f2fa073d6",
	"service/spp/433.milc":                   "f4923c944b3716ba",
	"service/spp/471.omnetpp":                "9d1535ce19c7ecfe",
	"taxonomy/bo":                            "spatial|3fe15a1e9b4ce4fb|3fde395810624dd3|3fd61155bb232a15",
	"taxonomy/domino":                        "temporal|3fd74a146a0c8652|3fbf3bcfbcd5c510|3f9c5ebfe5489cfd",
	"taxonomy/ghb":                           "spatial|3fd974493ccdf33a|3fd994237fa89e61|3fcd6b2030a0a8fd",
	"taxonomy/isb":                           "temporal|3fd71d652a807109|3fbdca9b860b90a3|3facfda4ee91d702",
	"taxonomy/spp":                           "spatial|3fe3126e978d4fdf|3fe2ad0e56041893|3fe4e7040c8b23f1",
	"taxonomy/stems":                         "spa-temp|3fe3333333333333|3fa35ee402bb0cf9|3f7cff65843fa5b8",
	"taxonomy/stms":                          "temporal|3fd6ca22c4098c88|3fbf9807b9631e98|3fa755628a9b9b75",
	"taxonomy/stride":                        "spatial|3fe329a485cd7b90|3fe329a485cd7b90|3fde34aeb7510a46",
	"taxonomy/vldp":                          "spatial|3fe331b86573ba98|3fe24ccccccccccd|3fd8ecb1187651d0",
	"taxonomy/voyager":                       "neural|3fd74a146a0c8652|3fbf3bcfbcd5c510|3f9c5ebfe5489cfd",
}

// resultFingerprint hashes every Result field, floats as their bits,
// plus the source's state bytes when it is a checkpoint.Stater.
func resultFingerprint(t *testing.T, res sim.Result, src sim.Source) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%x|%x|%d|%d|%x|%d|%d|%d|%d|%x|%x\n",
		res.Workload, res.Source, res.Instructions, math.Float64bits(res.Cycles),
		math.Float64bits(res.IPC), res.LLCAccesses, res.LLCMisses, math.Float64bits(res.MPKI),
		res.PrefetchesIssued, res.UsefulPrefetches, res.LatePrefetchHits, res.DroppedPrefetches,
		math.Float64bits(res.Accuracy), math.Float64bits(res.Coverage))
	levels := make([]string, 0, len(res.Caches))
	for level := range res.Caches {
		levels = append(levels, level)
	}
	sort.Strings(levels)
	for _, level := range levels {
		fmt.Fprintf(h, "%s %+v\n", level, res.Caches[level])
	}
	if st, ok := src.(checkpoint.Stater); ok {
		if err := st.SaveState(h); err != nil {
			t.Fatalf("%s: SaveState: %v", res.Source, err)
		}
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// fingerprintRun simulates src over the workload's pinned trace.
func fingerprintRun(t *testing.T, workload string, src sim.Source) string {
	t.Helper()
	w := trace.MustLookup(workload)
	tr := trace.Shared().Get(w, fingerprintAccesses, w.Seed)
	res, err := sim.NewRunner(sim.DefaultConfig()).Run(tr, src)
	if err != nil {
		t.Fatal(err)
	}
	return resultFingerprint(t, res, src)
}

// slow reports whether -short skips the named source: the DQN and
// LSTM sources take minutes under the race detector, so the
// race-enabled gate pins the rest and the full suite pins them.
func slow(name string) bool {
	return testing.Short() && (name == "resemble" || name == "voyager")
}

// TestSourceFingerprints pins every source name through the batch
// experiments' source set (plain and with a fault plan, which must wrap
// every arm), the extended taxonomy's entries, and the service's
// BuildSource at its default masking operating point. A change in what
// any name builds, or in the configuration it is built with, changes a
// fingerprint.
func TestSourceFingerprints(t *testing.T) {
	got := map[string]string{}

	noisy := func(p prefetch.Prefetcher) prefetch.Prefetcher {
		return faults.Wrap(p, faults.Config{Mode: faults.Noisy, Seed: 7})
	}
	set := experiments.EvaluationSources()
	// SaveState writes gob streams, and gob numbers each type the first
	// time the process encodes it, so one source's bytes depend on what
	// was saved before it. Saving a fresh DQN controller first (its
	// state nests the arms' and the reward tracker's types) fixes the
	// numbering whichever sources -short skips.
	if err := set.Build("resemble", experiments.Options{Batch: 64}).(checkpoint.Stater).SaveState(io.Discard); err != nil {
		t.Fatal(err)
	}
	for _, name := range set.Names {
		if slow(name) {
			continue
		}
		for _, w := range fingerprintWorkloads {
			src := set.Build(name, experiments.Options{Batch: 64, Seed: 1})
			got["experiments/"+name+"/"+w] = fingerprintRun(t, w, src)
		}
		faulted := experiments.Options{Batch: 64, Sim: []sim.Option{sim.WithFaults(noisy)}}
		got["experiments+faults/"+name+"/433.milc"] = fingerprintRun(t, "433.milc", set.Build(name, faulted))
	}

	if !slow("voyager") {
		rows, err := experiments.Taxonomy(experiments.Options{Accesses: fingerprintAccesses, Jobs: 2})
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			got["taxonomy/"+r.Prefetcher] = fmt.Sprintf("%s|%x|%x|%x", r.Class,
				math.Float64bits(r.AvgAccuracy), math.Float64bits(r.AvgCoverage), math.Float64bits(r.AvgIPCGain))
		}
	}

	svc, err := service.New(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range service.Controllers() {
		if slow(name) {
			continue
		}
		for _, w := range fingerprintWorkloads {
			src, excluded, err := svc.BuildSource(service.Request{Workload: w, Controller: name, Seed: 2})
			if err != nil || len(excluded) != 0 {
				t.Fatalf("service %s: excluded %v, err %v", name, excluded, err)
			}
			got["service/"+name+"/"+w] = fingerprintRun(t, w, src)
		}
	}

	checkFingerprints(t, got)
}

// checkFingerprints compares got against sourceFingerprints, printing
// the whole table on a mismatch so an intended change can be re-pinned
// in one step.
func checkFingerprints(t *testing.T, got map[string]string) {
	t.Helper()
	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := !testing.Short() && len(got) != len(sourceFingerprints)
	for _, k := range keys {
		if want, ok := sourceFingerprints[k]; !ok || want != got[k] {
			t.Errorf("%s: fingerprint %s, want %s", k, got[k], want)
			bad = true
		}
	}
	if bad {
		var table string
		for _, k := range keys {
			table += fmt.Sprintf("\t%q: %q,\n", k, got[k])
		}
		t.Logf("fingerprints:\n%s", table)
	}
}
