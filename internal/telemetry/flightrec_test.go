package telemetry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestFlightRecorderRingBounds(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{Process: "p", MinInterval: time.Hour}, nil, nil)
	for i := 0; i < RecorderEventCap+6; i++ {
		r.Note("k", fmt.Sprintf("e%d", i))
	}
	snap := r.Snapshot()
	if len(snap.Events) != RecorderEventCap {
		t.Fatalf("recorder kept %d events, cap is %d", len(snap.Events), RecorderEventCap)
	}
	for i, e := range snap.Events {
		if want := fmt.Sprintf("e%d", 6+i); e.Detail != want {
			t.Fatalf("event %d = %q, want %q (oldest-first after eviction)", i, e.Detail, want)
		}
	}
	if snap.Process != "p" {
		t.Fatalf("snapshot process %q", snap.Process)
	}

	for i := 0; i < RecorderIncidentCap+3; i++ {
		r.Capture("manual", fmt.Sprintf("c%d", i))
	}
	incs := r.Incidents()
	if len(incs) != RecorderIncidentCap {
		t.Fatalf("retained %d incidents, cap is %d", len(incs), RecorderIncidentCap)
	}
	last := incs[len(incs)-1]
	if incs[0].Detail != "c3" || last.Detail != fmt.Sprintf("c%d", RecorderIncidentCap+2) {
		t.Fatalf("retained wrong incidents: %q .. %q", incs[0].Detail, last.Detail)
	}
	if incs[0].Seq != 4 || last.Seq != RecorderIncidentCap+3 {
		t.Fatalf("incident seqs %d..%d want 4..%d", incs[0].Seq, last.Seq, RecorderIncidentCap+3)
	}
}

func TestFlightRecorderTriggerRateLimit(t *testing.T) {
	r := NewFlightRecorder(RecorderConfig{MinInterval: time.Hour}, nil, nil)
	if inc := r.Trigger("breaker.trip", "bo"); inc == nil {
		t.Fatal("first trigger suppressed")
	}
	if inc := r.Trigger("breaker.trip", "bo"); inc != nil {
		t.Fatal("second trigger within MinInterval not suppressed")
	}
	if got := r.Suppressed(); got != 1 {
		t.Fatalf("suppressed = %d, want 1", got)
	}
	// Suppressed triggers still leave breadcrumbs, and manual capture
	// bypasses the limit.
	if n := len(r.Snapshot().Events); n != 2 {
		t.Fatalf("ring has %d events, want 2 (one per trigger)", n)
	}
	inc := r.Capture("manual", "")
	if inc.Trigger != "manual" || len(r.Incidents()) != 2 {
		t.Fatal("manual capture did not bypass the rate limit")
	}
}

func TestFlightRecorderSnapshotCarriesSpansAndHistory(t *testing.T) {
	col, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	hist := NewHistory(8)
	reg := NewRegistry()
	reg.Counter("x").Add(3)
	hist.Record(time.Now(), reg.Snapshot())
	r := NewFlightRecorder(RecorderConfig{}, col, hist)
	r.SetProcess("svc 1.2.3.4:5")
	col.StartSpan("t", "op").End()

	decorated := false
	r.cfg.Decorate = func(inc *Incident) {
		decorated = true
		inc.Captures = []string{"prof-1"}
	}
	inc := r.Trigger("failover", "b → c")
	if inc == nil {
		t.Fatal("trigger suppressed")
	}
	if !decorated || inc.Captures == nil {
		t.Fatal("decorate hook not applied")
	}
	if inc.Process != "svc 1.2.3.4:5" {
		t.Fatalf("incident process %q", inc.Process)
	}
	if len(inc.Spans) != 1 || inc.Spans[0].Name != "op" {
		t.Fatalf("incident spans %+v, want the collector's ring", inc.Spans)
	}
	if len(inc.History) != 1 || inc.History[0].Counters["x"] != 3 {
		t.Fatalf("incident history %+v, want the sampled registry", inc.History)
	}
	if len(inc.Events) != 1 || inc.Events[0].Kind != "failover" {
		t.Fatalf("incident events %+v", inc.Events)
	}
}

// TestFlightRecorderConcurrent hammers every method from parallel
// goroutines; run under -race (check.sh race-enables this test) it
// proves the ring is safe to share between request handlers, trigger
// sites and HTTP scrapes.
func TestFlightRecorderConcurrent(t *testing.T) {
	col, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	r := NewFlightRecorder(RecorderConfig{MinInterval: time.Nanosecond}, col, NewHistory(16))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch i % 5 {
				case 0:
					r.Note("n", "x")
				case 1:
					r.Trigger("t", "y")
				case 2:
					r.Snapshot()
				case 3:
					r.Incidents()
				default:
					r.Capture("manual", "z")
				}
			}
		}(g)
	}
	wg.Wait()
	if len(r.Incidents()) == 0 {
		t.Fatal("no incidents retained after concurrent captures")
	}
}

func TestFlightRecorderNilSafe(t *testing.T) {
	var r *FlightRecorder
	r.Note("k", "d")
	r.SetProcess("p")
	if r.Trigger("t", "") != nil {
		t.Fatal("nil recorder captured")
	}
	if inc := r.Capture("t", ""); inc.Seq != 0 {
		t.Fatal("nil recorder capture not zero")
	}
	if r.Incidents() != nil || r.Suppressed() != 0 {
		t.Fatal("nil recorder state not empty")
	}
	if snap := r.Snapshot(); snap.Process != "" || snap.Events != nil {
		t.Fatal("nil recorder snapshot not zero")
	}
}
