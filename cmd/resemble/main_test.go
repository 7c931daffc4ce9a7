package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// cliFingerprints pins what each -controller name builds, as the hash
// of a short run's stdout, its telemetry windows and metrics (every
// float at full precision), and the saved model of the RL controllers.
var cliFingerprints = map[string]string{
	"bo 433.milc":          "f1f112a1bb90a0c7",
	"bo 471.omnetpp":       "76714dcc01800c62",
	"domino 433.milc":      "842f329db2a7a49d",
	"domino 471.omnetpp":   "90b9b247171675d5",
	"isb 433.milc":         "7f052b641dfb0294",
	"isb 471.omnetpp":      "d85a14b1e9ef2372",
	"none 433.milc":        "f53a4b457b09fb34",
	"none 471.omnetpp":     "d6cef5b67b7454b2",
	"resemble 433.milc":    "d3d394fe30f058d7",
	"resemble 471.omnetpp": "4e17d5976d91ae57",
	"resemble 471.omnetpp -batch 32 -seed 1 -fixed-frac 10": "c65debb95ba44e0f",
	"resemble-t 433.milc":    "290cdfea8f039f21",
	"resemble-t 471.omnetpp": "801533ce28229a02",
	"sbp-e 433.milc":         "02567d4cef56ae73",
	"sbp-e 471.omnetpp":      "a2dc904c39460dd8",
	"spp 433.milc":           "68d710a63dae7e90",
	"spp 471.omnetpp":        "dc634ac35ffb81c8",
	"stride 433.milc":        "e477341524c196d5",
	"stride 471.omnetpp":     "9ddc9df291392dc3",
	"voyager 433.milc":       "7eeb54a33f7d6efb",
	"voyager 471.omnetpp":    "9643ef5cc005a3ce",
}

// runCLI runs the command with args on a fresh flag set and returns its
// stdout.
func runCLI(t *testing.T, args ...string) []byte {
	t.Helper()
	oldArgs, oldFlags, oldStdout := os.Args, flag.CommandLine, os.Stdout
	defer func() { os.Args, flag.CommandLine, os.Stdout = oldArgs, oldFlags, oldStdout }()
	out, err := os.Create(filepath.Join(t.TempDir(), "stdout"))
	if err != nil {
		t.Fatal(err)
	}
	defer out.Close()
	os.Args = append([]string{"resemble"}, args...)
	flag.CommandLine = flag.NewFlagSet("resemble", flag.ContinueOnError)
	os.Stdout = out
	if err := run(); err != nil {
		t.Fatalf("resemble %s: %v", strings.Join(args, " "), err)
	}
	stdout, err := os.ReadFile(out.Name())
	if err != nil {
		t.Fatal(err)
	}
	return stdout
}

// TestSourceFingerprints pins every -controller name through the
// command's source selection on two workloads, plus one run with a
// non-default -batch, -seed and -fixed-frac. A change in what any name
// builds, or in the configuration it is built with, changes a
// fingerprint.
func TestSourceFingerprints(t *testing.T) {
	type run struct {
		name, workload string
		extra          []string
	}
	var runs []run
	for _, name := range []string{"resemble", "resemble-t", "sbp-e", "bo", "spp", "isb", "domino", "stride", "voyager", "none"} {
		// The DQN and LSTM sources take minutes under the race detector;
		// the race-enabled gate runs -short and the full suite pins them.
		if testing.Short() && (name == "resemble" || name == "voyager") {
			continue
		}
		runs = append(runs, run{name, "433.milc", nil}, run{name, "471.omnetpp", nil})
	}
	if !testing.Short() {
		runs = append(runs, run{"resemble", "471.omnetpp", []string{"-batch", "32", "-seed", "1", "-fixed-frac", "10"}})
	}

	got := map[string]string{}
	for _, r := range runs {
		dir := t.TempDir()
		model := filepath.Join(dir, "model")
		args := append([]string{"-workload", r.workload, "-controller", r.name, "-n", "6000",
			"-telemetry", dir}, r.extra...)
		if r.name == "resemble" || r.name == "resemble-t" {
			args = append(args, "-save", model)
		}
		h := sha256.New()
		// The run's temporary directory appears in stdout ("saved model to").
		h.Write(bytes.ReplaceAll(runCLI(t, args...), []byte(dir), []byte("DIR")))
		for _, f := range []string{"windows.jsonl", "metrics.json", "model"} {
			b, err := os.ReadFile(filepath.Join(dir, f))
			if err != nil && !(f == "model" && os.IsNotExist(err)) {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s %d\n", f, len(b))
			h.Write(b)
		}
		key := strings.Join(append([]string{r.name, r.workload}, r.extra...), " ")
		got[key] = hex.EncodeToString(h.Sum(nil))[:16]
	}

	keys := make([]string, 0, len(got))
	for k := range got {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	bad := !testing.Short() && len(got) != len(cliFingerprints)
	for _, k := range keys {
		if want, ok := cliFingerprints[k]; !ok || want != got[k] {
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
