package main

import (
	_ "embed"
	"encoding/csv"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"

	"resemble/internal/service"
	"resemble/internal/sim"
	"resemble/internal/trace"
)

// runKey identifies one simulation: which trace, which controller, how
// many accesses and which request seed. The seed offsets both the
// trace generator (workload seed + seed) and the controller seed, as
// service.Request.Seed does, so a key pins the simulated result.
type runKey struct {
	Trace      string
	Controller string
	Accesses   int
	Seed       int64
}

func (k runKey) String() string {
	return fmt.Sprintf("%s/%s/%d/%d", k.Trace, k.Controller, k.Accesses, k.Seed)
}

func (k runKey) request() service.Request {
	return service.Request{Workload: k.Trace, Controller: k.Controller, Accesses: k.Accesses, Seed: k.Seed}
}

// simStats are the simulated statistics every op is checked on.
type simStats struct {
	IPC, MPKI, Accuracy, Coverage                               float64
	Instructions, LLCMisses, PrefetchesIssued, UsefulPrefetches uint64
}

func statsOfResult(r sim.Result) simStats {
	return simStats{r.IPC, r.MPKI, r.Accuracy, r.Coverage,
		r.Instructions, r.LLCMisses, r.PrefetchesIssued, r.UsefulPrefetches}
}

func statsOfResponse(r service.Response) simStats {
	return simStats{r.IPC, r.MPKI, r.Accuracy, r.Coverage,
		r.Instructions, r.LLCMisses, r.PrefetchesIssued, r.UsefulPrefetches}
}

var refHeader = []string{"trace", "controller", "accesses", "seed",
	"ipc", "mpki", "accuracy", "coverage",
	"instructions", "llc_misses", "prefetches_issued", "useful_prefetches"}

// reference maps every run key a workload can issue to the statistics
// the simulator produced for it when the reference was written.
type reference map[runKey]simStats

//go:embed reference.csv
var referenceCSV string

// loadReference parses the embedded reference table.
func loadReference() (reference, error) { return parseReference(strings.NewReader(referenceCSV)) }

func parseReference(r io.Reader) (reference, error) {
	rows, err := csv.NewReader(r).ReadAll()
	if err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	if len(rows) == 0 || strings.Join(rows[0], ",") != strings.Join(refHeader, ",") {
		return nil, fmt.Errorf("reference: missing or unexpected header")
	}
	ref := make(reference, len(rows)-1)
	for i, row := range rows[1:] {
		var k runKey
		var s simStats
		var errs [10]error
		k.Trace, k.Controller = row[0], row[1]
		k.Accesses, errs[0] = strconv.Atoi(row[2])
		k.Seed, errs[1] = strconv.ParseInt(row[3], 10, 64)
		s.IPC, errs[2] = strconv.ParseFloat(row[4], 64)
		s.MPKI, errs[3] = strconv.ParseFloat(row[5], 64)
		s.Accuracy, errs[4] = strconv.ParseFloat(row[6], 64)
		s.Coverage, errs[5] = strconv.ParseFloat(row[7], 64)
		s.Instructions, errs[6] = strconv.ParseUint(row[8], 10, 64)
		s.LLCMisses, errs[7] = strconv.ParseUint(row[9], 10, 64)
		s.PrefetchesIssued, errs[8] = strconv.ParseUint(row[10], 10, 64)
		s.UsefulPrefetches, errs[9] = strconv.ParseUint(row[11], 10, 64)
		for _, e := range errs {
			if e != nil {
				return nil, fmt.Errorf("reference: row %d: %w", i+2, e)
			}
		}
		ref[k] = s
	}
	return ref, nil
}

// check reports whether got equals the reference for k exactly. A key
// missing from the table is a mismatch too: the workloads only issue
// keys from their pools, which the table covers.
func (ref reference) check(k runKey, got simStats) error {
	want, ok := ref[k]
	switch {
	case !ok:
		return fmt.Errorf("%s: no reference value", k)
	case got != want:
		return fmt.Errorf("%s: got %+v, reference %+v", k, got, want)
	}
	return nil
}

// writeReference simulates every key of every workload's pool
// in-process (two goroutines) and writes the table to path. Run it
// only when the simulated results are meant to change.
func writeReference(path string) error {
	seen := map[runKey]bool{}
	var keys []runKey
	for _, w := range workloads {
		for _, k := range w.pool() {
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
	svc, err := newSourceBuilder()
	if err != nil {
		return err
	}
	runner := sim.NewRunner(sim.DefaultConfig())
	out := make([]simStats, len(keys))
	errs := make([]error, len(keys))
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i], errs[i] = simulate(svc, trace.NewCache(0), runner, keys[i])
			}
		}()
	}
	for i := range keys {
		next <- i
	}
	close(next)
	wg.Wait()

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	_ = w.Write(refHeader)
	ff := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	fu := func(v uint64) string { return strconv.FormatUint(v, 10) }
	for i, k := range keys {
		if errs[i] != nil {
			f.Close()
			return fmt.Errorf("%s: %w", k, errs[i])
		}
		s := out[i]
		_ = w.Write([]string{k.Trace, k.Controller, strconv.Itoa(k.Accesses), strconv.FormatInt(k.Seed, 10),
			ff(s.IPC), ff(s.MPKI), ff(s.Accuracy), ff(s.Coverage),
			fu(s.Instructions), fu(s.LLCMisses), fu(s.PrefetchesIssued), fu(s.UsefulPrefetches)})
	}
	w.Flush()
	if err := w.Error(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d reference rows to %s\n", len(keys), path)
	return nil
}
