package main

import (
	"bufio"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (the same definition as numpy's default and
// Python's statistics.quantiles(method="inclusive")). xs is sorted in
// place. An empty slice yields 0.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo >= len(xs)-1 {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// peakRSSMB reads the process's peak resident set size (VmHWM) in MB.
// It returns 0 where /proc is unavailable.
func peakRSSMB() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[1], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// procSample is a snapshot of the process counters a phase is
// charged with: CPU time, GC cycles and heap allocations.
type procSample struct {
	cpu     time.Duration
	gcs     uint32
	mallocs uint64
}

func sampleProc() procSample {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return procSample{cpu: cpuTime(), gcs: m.NumGC, mallocs: m.Mallocs}
}

// since is the counter delta from p to now.
func (p procSample) since() procSample {
	now := sampleProc()
	return procSample{cpu: now.cpu - p.cpu, gcs: now.gcs - p.gcs, mallocs: now.mallocs - p.mallocs}
}

// windows is how many equal windows a load phase is cut into for the
// end-to-end metrics.
const windows = 10

// windowStats are the end-to-end figures of a load phase, each the
// median over its windows: throughput from the requests that completed
// in a window, latency percentiles over the ops that completed in it.
// The host's speed drifts by 10-25% in episodes of tens of seconds; a
// median over windows ignores an episode that covers under half the
// run, where a whole-run figure would not.
type windowStats struct {
	accessesPerS, requestsPerS float64
	p50, p90                   float64
	samples                    []int // latency samples per window
}

func (lr loadResult) windowed() windowStats {
	width := lr.window.Seconds() / windows
	acc := make([]float64, windows)
	req := make([]float64, windows)
	lats := make([][]float64, windows)
	slot := func(at float64) int {
		if width <= 0 || at < 0 {
			return -1
		}
		if w := int(at / width); w < windows {
			return w
		}
		return -1 // completed after the measured span
	}
	for _, d := range lr.done {
		if w := slot(d.at); w >= 0 {
			acc[w] += float64(d.accesses) / width
			req[w] += 1 / width
		}
	}
	for i, at := range lr.latAt {
		if w := slot(at); w >= 0 {
			lats[w] = append(lats[w], lr.latMS[i])
		}
	}
	ws := windowStats{accessesPerS: median(acc), requestsPerS: median(req)}
	var p50s, p90s []float64
	for _, l := range lats {
		ws.samples = append(ws.samples, len(l))
		if len(l) > 0 {
			p50s = append(p50s, quantile(l, 0.5))
			p90s = append(p90s, quantile(l, 0.9))
		}
	}
	ws.p50, ws.p90 = median(p50s), median(p90s)
	return ws
}
