package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"testing"
	"time"

	"resemble/internal/service"
	"resemble/internal/telemetry"
)

// TestRetentionKeepsNewest pins the one retention rule every bounded
// debug buffer follows: after cap+k records, the newest cap remain,
// oldest first, and a buffer that counts or cleans up its evictions
// does so once per evicted record. It lives here because this package
// sees every buffer: telemetry's, the service's capture list and the
// front door's fleet bundles.
func TestRetentionKeepsNewest(t *testing.T) {
	const k = 3
	// Each case pushes record i for i = 0..cap+k-1 and reports the
	// indices it retains; dropped, when set, reports the evictions the
	// buffer counted or cleaned up.
	type buffer struct {
		cap     int
		push    func(i int)
		kept    func() []int
		dropped func() int
	}
	atoi := func(s string) int {
		n, err := strconv.Atoi(s)
		if err != nil {
			t.Fatalf("record label %q: %v", s, err)
		}
		return n
	}
	collector := func(cfg telemetry.Config) *telemetry.Collector {
		c, err := telemetry.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	decisions := func(c *telemetry.Collector) []int {
		var out []int
		for _, d := range c.Decisions() {
			out = append(out, int(d.Seq))
		}
		return out
	}
	cases := []struct {
		name  string
		build func(t *testing.T) buffer
	}{
		{"history", func(t *testing.T) buffer {
			h := telemetry.NewHistory(8)
			return buffer{cap: 8,
				push: func(i int) { h.Record(time.UnixMilli(int64(i)), telemetry.RegistrySnapshot{}) },
				kept: func() (out []int) {
					for _, s := range h.Samples() {
						out = append(out, int(s.TMS))
					}
					return out
				}}
		}},
		{"recorder-events", func(t *testing.T) buffer {
			r := telemetry.NewFlightRecorder(telemetry.RecorderConfig{}, nil, nil)
			return buffer{cap: telemetry.RecorderEventCap,
				push: func(i int) { r.Note("k", strconv.Itoa(i)) },
				kept: func() (out []int) {
					for _, e := range r.Snapshot().Events {
						out = append(out, atoi(e.Detail))
					}
					return out
				}}
		}},
		{"incidents", func(t *testing.T) buffer {
			r := telemetry.NewFlightRecorder(telemetry.RecorderConfig{}, nil, nil)
			return buffer{cap: telemetry.RecorderIncidentCap,
				push: func(i int) { r.Capture("manual", strconv.Itoa(i)) },
				kept: func() (out []int) {
					for _, inc := range r.Incidents() {
						out = append(out, atoi(inc.Detail))
					}
					return out
				}}
		}},
		{"spans", func(t *testing.T) buffer {
			c := collector(telemetry.Config{SpanCap: 8})
			return buffer{cap: 8,
				push: func(i int) { c.StartSpan("t", strconv.Itoa(i)).End() },
				kept: func() (out []int) {
					for _, s := range c.Spans() {
						out = append(out, atoi(s.Name))
					}
					return out
				},
				dropped: func() int { return int(c.SpanDrops()) }}
		}},
		{"decisions", func(t *testing.T) buffer {
			c := collector(telemetry.Config{DecisionCap: 8})
			return buffer{cap: 8,
				push: func(i int) { c.RecordDecision(telemetry.Decision{Seq: uint64(i)}) },
				kept: func() []int { return decisions(c) }}
		}},
		{"decisions-merged", func(t *testing.T) buffer {
			// The child keeps everything; the cap applies as the parent
			// merges the child's records in.
			parent := collector(telemetry.Config{DecisionCap: 8})
			child := parent.Child()
			merged := false
			return buffer{cap: 8,
				push: func(i int) { child.RecordDecision(telemetry.Decision{Seq: uint64(i)}) },
				kept: func() []int {
					if !merged {
						parent.Merge(child)
						merged = true
					}
					return decisions(parent)
				}}
		}},
		{"captures", func(t *testing.T) buffer {
			s, err := service.New(service.Config{Workers: 1, DrainTimeout: 10 * time.Second, ProfileDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Start(); err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { s.Close() })
			var dirs []string
			return buffer{cap: service.CaptureCap,
				push: func(int) {
					resp, err := http.Post("http://"+s.Addr()+"/debug/profile/capture?cpu_ms=0", "", nil)
					if err != nil {
						t.Fatal(err)
					}
					defer resp.Body.Close()
					var info service.CaptureInfo
					if err := json.NewDecoder(resp.Body).Decode(&info); err != nil || resp.StatusCode != http.StatusOK {
						t.Fatalf("capture: status %d, err %v", resp.StatusCode, err)
					}
					dirs = append(dirs, info.Dir)
				},
				kept: func() (out []int) {
					resp, err := http.Get("http://" + s.Addr() + "/debug/profile/captures")
					if err != nil {
						t.Fatal(err)
					}
					defer resp.Body.Close()
					var list struct {
						Captures []service.CaptureInfo `json:"captures"`
					}
					if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
						t.Fatal(err)
					}
					for _, c := range list.Captures {
						out = append(out, c.Seq-1)
					}
					return out
				},
				// An evicted capture's directory is removed; a kept
				// one's stays.
				dropped: func() (n int) {
					for i, dir := range dirs {
						_, err := os.Stat(dir)
						if os.IsNotExist(err) {
							n++
						} else if i < k || err != nil {
							t.Errorf("capture dir %d: stat err %v", i, err)
						}
					}
					return n
				}}
		}},
		{"fleet-bundles", func(t *testing.T) buffer {
			f, _ := testFleet(t, 1, nil)
			return buffer{cap: fleetIncidentCap,
				push: func(i int) { f.assembleFleetBundle(telemetry.Incident{Detail: strconv.Itoa(i)}) },
				kept: func() (out []int) {
					for _, b := range f.FleetIncidents() {
						out = append(out, atoi(b.Incident.Detail))
					}
					return out
				}}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := tc.build(t)
			for i := 0; i < b.cap+k; i++ {
				b.push(i)
			}
			var want []int
			for i := k; i < b.cap+k; i++ {
				want = append(want, i)
			}
			if got := b.kept(); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("kept %v, want the newest %d: %v", got, b.cap, want)
			}
			if b.dropped != nil {
				if got := b.dropped(); got != k {
					t.Errorf("dropped %d, want %d", got, k)
				}
			}
		})
	}
}
