// Command perfbench is the repository benchmark. One invocation runs
// one workload for a fixed time, checks every simulated result against
// the reference table kept beside it, and prints its metrics as the
// last line of standard output:
//
//	perfbench --workload sim-batch --seed 1 --seconds 30 --trace 0
//
// --trace 0 prints the end-to-end metrics of a timed run; --trace 1
// runs the separate traced run and prints the per-layer metrics. See
// README.md for why each workload exists and what each metric should
// move.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"time"
)

// setupRepeats is how many times a timed run sets its workload up;
// setup_s is the median.
const setupRepeats = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// environment is recorded with every result.
type environment struct {
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Clients    int    `json:"clients"`
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "", "workload: sim-batch, serve-short, front-durable or dqn-online")
		seed     = fs.Int64("seed", 1, "workload seed: picks the request sequence")
		seconds  = fs.Int("seconds", 30, "measured seconds")
		traced   = fs.Int("trace", 0, "1 runs the traced run and prints per-layer metrics")
		workdir  = fs.String("workdir", ".bench_build/perfbench", "scratch directory for stores and the Chrome trace")
		writeRef = fs.String("write-reference", "", "simulate every pool key and write the reference table to this path, then exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *writeRef != "" {
		return writeReference(*writeRef)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		return errors.New("--seconds must be positive and --trace 0 or 1")
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(*workdir, 0o755); err != nil {
		return err
	}
	b := &bench{
		seed: *seed, ref: ref, workdir: *workdir, out: stdout,
		client: &http.Client{
			Timeout:   60 * time.Second,
			Transport: &http.Transport{MaxIdleConnsPerHost: 8},
		},
	}
	defer b.client.CloseIdleConnections()
	env := environment{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), loadClients}
	d := time.Duration(*seconds) * time.Second
	var res result
	if *traced == 1 {
		res, err = tracedRun(b, w, d, env)
	} else {
		res, err = timedRun(b, w, d, env)
	}
	if err != nil {
		return err
	}
	return printJSON(stdout, res)
}

// setupTimed sets w up setupRepeats times, keeping the last instance,
// and returns the per-setup durations.
func setupTimed(b *bench, w workload) (instance, []float64, error) {
	var times []float64
	var inst instance
	for i := 0; i < setupRepeats; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, err
			}
		}
		t0 := time.Now()
		var err error
		if inst, err = w.setup(b); err != nil {
			return nil, nil, fmt.Errorf("%s setup: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return inst, times, nil
}

// timedRun measures the end-to-end metrics with no tracing.
func timedRun(b *bench, w workload, d time.Duration, env environment) (result, error) {
	inst, setups, err := setupTimed(b, w)
	if err != nil {
		return result{}, err
	}
	lr := inst.load(d)
	ctr := inst.counters()
	if err := inst.close(); err != nil {
		return result{}, fmt.Errorf("%s close: %w", w.name, err)
	}
	valid, why := lr.valid()
	ws := lr.windowed()
	detail := map[string]any{
		"workload": w.name, "seed": b.seed, "env": env,
		"setup_s": setups, "latency_samples": len(lr.latMS), "window_latency_samples": ws.samples,
		"attempted": lr.attempted, "succeeded": lr.attempted - lr.failed, "failed": lr.failed,
		"elapsed_s": lr.elapsed.Seconds(), "valid": valid, "invalid_reason": why,
		"errors": lr.errs,
	}
	if ctr.backendCompleted != nil {
		detail["backend_completed"] = ctr.backendCompleted
	}
	if lr.lateMS != nil {
		detail["loadgen_late_ms_p90"] = quantile(append([]float64(nil), lr.lateMS...), 0.9)
	}
	if err := printJSON(b.out, detail); err != nil {
		return result{}, err
	}
	return result{
		Correct:   lr.failed == 0 && valid,
		Attempted: lr.attempted,
		Failed:    lr.failed,
		Metrics: map[string]metric{
			"setup_s":        {median(setups), "s"},
			"accesses_per_s": {ws.accessesPerS, "accesses/s"},
			"requests_per_s": {ws.requestsPerS, "1/s"},
			"latency_p50_ms": {ws.p50, "ms"},
			"latency_p90_ms": {ws.p90, "ms"},
			"peak_rss_mb":    {peakRSSMB(), "MB"},
		},
	}, nil
}

// maxLateFrac is the share of an open loop's sends that may leave more
// than half an interval late before the run is invalid: past it the
// generator, not the system, set the offered load.
const maxLateFrac = 0.1

// valid reports whether the load phase measured what it claims: at
// least one op, and for an open loop, a generator that kept to its
// schedule.
func (lr loadResult) valid() (bool, string) {
	if lr.attempted == 0 || len(lr.latMS) == 0 {
		return false, "no op completed"
	}
	if lr.lateMS == nil {
		return true, ""
	}
	limit := ms(time.Second/durableRatePerSec) / 2
	late := 0
	for _, l := range lr.lateMS {
		if l > limit {
			late++
		}
	}
	if float64(late) > maxLateFrac*float64(len(lr.lateMS)) {
		return false, fmt.Sprintf("load generator behind schedule: %d of %d sends more than %.1f ms late",
			late, len(lr.lateMS), limit)
	}
	return true, ""
}

// printJSON writes v as one line of JSON.
func printJSON(w io.Writer, v any) error {
	line, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}
