package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"resemble/internal/cas"
	"resemble/internal/cluster"
	"resemble/internal/service"
	"resemble/internal/telemetry"
)

// The incident demo behind -soak: three in-process resembled backends
// on one shared artifact store behind a front door. It kills a run's
// owner mid-flight, then wedges a backend behind a hedging front, and
// writes what an operator would pull after each incident:
//
//   - incident-kill.json: the failover fleet bundle;
//   - stitched-kill.json: the killed-then-resumed request's stitched
//     cross-process Chrome trace;
//   - incident-wedge.json: a manual fleet capture after the hedge;
//   - stitched-wedge.json: the hedging front's stitched Chrome trace.
//
// The tests of internal/service and internal/cluster own every
// contract these artifacts show; the demo fails only when it cannot
// produce an artifact (each stitched trace must validate).

// demoBackend is one in-process resembled instance.
type demoBackend struct {
	svc *service.Service
	tel *telemetry.Collector
}

type incidentDemo struct {
	dir      string
	logf     func(string, ...any)
	store    *cas.Store
	addrs    []string
	backends map[string]*demoBackend
}

// runIncidentDemo writes the four artifacts into dir.
func runIncidentDemo(dir string, logf func(string, ...any)) error {
	storeDir, err := os.MkdirTemp("", "resemble-incident-demo-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(storeDir)
	store, _, err := cas.Open(storeDir)
	if err != nil {
		return err
	}
	d := &incidentDemo{dir: dir, logf: logf, store: store, backends: map[string]*demoBackend{}}
	defer d.closeBackends()
	for i := 0; i < 3; i++ {
		b, err := d.startBackend("127.0.0.1:0", nil)
		if err != nil {
			return err
		}
		d.addrs = append(d.addrs, b.svc.Addr())
	}
	killed, err := d.kill()
	if err != nil {
		return err
	}
	return d.wedge(killed)
}

// startBackend boots one backend on addr with chaos (nil = none).
// History is sampled every 50 ms into 1,200 slots, the 60 s retention
// of DESIGN.md §15, so each bundle embeds a dense pre-incident window.
func (d *incidentDemo) startBackend(addr string, chaos *service.Chaos) (*demoBackend, error) {
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{
		Addr:               addr,
		Workers:            2,
		QueueDepth:         16,
		Telemetry:          tel,
		Chaos:              chaos,
		Store:              d.store,
		RunCheckpointEvery: 512,
		HistoryEvery:       50 * time.Millisecond,
		HistorySamples:     1200,
	})
	if err != nil {
		return nil, err
	}
	if err := svc.Start(); err != nil {
		return nil, err
	}
	b := &demoBackend{svc: svc, tel: tel}
	d.backends[svc.Addr()] = b
	return b, nil
}

// startFront starts a front door with its own collector over the
// fleet; hedgeAfter 0 disables hedging.
func (d *incidentDemo) startFront(hedgeAfter time.Duration) (*cluster.Front, *telemetry.Collector, error) {
	tel, err := telemetry.New(telemetry.Config{})
	if err != nil {
		return nil, nil, err
	}
	f, err := cluster.New(cluster.Config{
		Backends:       d.addrs,
		HedgeAfter:     hedgeAfter,
		RequestTimeout: 60 * time.Second,
		DrainTimeout:   15 * time.Second,
		Store:          d.store,
		Probe:          cluster.ProbeConfig{Interval: 25 * time.Millisecond},
		Telemetry:      tel,
		HistoryEvery:   50 * time.Millisecond,
		HistorySamples: 1200,
		Logf:           d.logf,
	})
	if err == nil {
		err = f.Start()
	}
	if err != nil {
		tel.Close()
		return nil, nil, err
	}
	return f, tel, nil
}

// kill runs an 80,000-access request through a hedge-free front (a
// hedge could win the race and the failover would never resume),
// aborts its owner once two run checkpoints are durable, and writes
// the failover bundle and the stitched trace. It returns the killed
// backend's address.
func (d *incidentDemo) kill() (string, error) {
	f, tel, err := d.startFront(0)
	if err != nil {
		return "", err
	}
	defer d.stop("front", f.Close, tel.Close)
	req := service.Request{Workload: "433.milc", Controller: "bo", Accesses: 80000, Seed: 99}
	owner := f.Ring().Sequence(cluster.RouteKey(req))[0]
	done := make(chan int, 1)
	go func() { done <- d.post(f, req) }()
	if !poll(60*time.Second, func() bool { return d.backends[owner].svc.Stats().RunCkpWrites >= 2 }) {
		d.logf("incident-demo: owner %s wrote no run checkpoints; killing it anyway", owner)
	}
	d.backends[owner].svc.Abort()
	d.logf("incident-demo: killed %s mid-run; request answered %d", owner, <-done)

	var bundle *cluster.FleetIncident
	poll(10*time.Second, func() bool {
		for _, fi := range f.FleetIncidents() {
			if fi.Incident.Trigger == "failover" {
				bundle = &fi
				return true
			}
		}
		return false
	})
	if bundle == nil {
		return "", fmt.Errorf("no failover fleet bundle after killing %s", owner)
	}
	if err := d.writeJSON("incident-kill.json", bundle); err != nil {
		return "", err
	}
	// The front's request span ends a hair after the response is out.
	poll(5*time.Second, func() bool {
		for _, sp := range tel.Spans() {
			if sp.Name == "request" && sp.Proc == "front" {
				return true
			}
		}
		return false
	})
	if err := d.writeTrace("stitched-kill.json", tel.Spans()); err != nil {
		return "", err
	}

	// Reap the aborted engine; only its HTTP front was severed.
	b := d.backends[owner]
	delete(d.backends, owner)
	d.stop("backend "+owner, b.svc.Close, b.tel.Close)
	return owner, nil
}

// wedge restarts the killed backend with its handlers stalled, sends a
// request it owns through a hedging front, and writes a manual fleet
// capture and the front's stitched trace.
func (d *incidentDemo) wedge(addr string) error {
	chaos := &service.Chaos{SlowHandler: 10 * time.Second}
	if _, err := d.startBackend(addr, chaos); err != nil {
		return err
	}
	f, tel, err := d.startFront(150 * time.Millisecond)
	if err != nil {
		return err
	}
	defer d.stop("hedging front", f.Close, tel.Close)
	req := service.Request{Workload: "433.lbm", Controller: "resemble-t", Accesses: 2000}
	for ; ; req.Seed++ {
		if owner, _ := f.Ring().Lookup(cluster.RouteKey(req)); owner == addr {
			break
		}
	}
	d.logf("incident-demo: wedged %s; hedged request answered %d", addr, d.post(f, req))
	chaos.Stop()

	resp, err := http.Post("http://"+f.Addr()+"/debug/incidents/capture", "application/json", nil)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var bundle cluster.FleetIncident
	if err := json.NewDecoder(resp.Body).Decode(&bundle); err != nil || resp.StatusCode != http.StatusOK {
		return fmt.Errorf("manual fleet capture: status %d, err %v", resp.StatusCode, err)
	}
	if err := d.writeJSON("incident-wedge.json", bundle); err != nil {
		return err
	}
	return d.writeTrace("stitched-wedge.json", tel.Spans())
}

// post sends req through the front and returns the status (0 when the
// request could not be sent).
func (d *incidentDemo) post(f *cluster.Front, req service.Request) int {
	body, _ := json.Marshal(req)
	resp, err := http.Post("http://"+f.Addr()+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		d.logf("incident-demo: POST /v1/run: %v", err)
		return 0
	}
	resp.Body.Close()
	return resp.StatusCode
}

func (d *incidentDemo) closeBackends() {
	for addr, b := range d.backends {
		d.stop("backend "+addr, b.svc.Close, b.tel.Close)
	}
}

// stop runs a daemon's and then its collector's Close. A failure is
// logged, not returned: the artifacts are already written.
func (d *incidentDemo) stop(what string, closers ...func() error) {
	for _, c := range closers {
		if err := c(); err != nil {
			d.logf("incident-demo: closing %s: %v", what, err)
		}
	}
}

// writeTrace exports spans as a Chrome trace and writes it only if it
// validates.
func (d *incidentDemo) writeTrace(name string, spans []telemetry.SpanRecord) error {
	var buf bytes.Buffer
	if err := telemetry.WriteChromeTrace(&buf, spans); err != nil {
		return err
	}
	if err := telemetry.ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	return d.write(name, buf.Bytes())
}

func (d *incidentDemo) writeJSON(name string, v any) error {
	out, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return d.write(name, out)
}

func (d *incidentDemo) write(name string, data []byte) error {
	path := filepath.Join(d.dir, name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err
	}
	d.logf("incident-demo: wrote %s", path)
	return nil
}

// poll checks cond every 10 ms until it holds or timeout passes.
func poll(timeout time.Duration, cond func() bool) bool {
	for deadline := time.Now().Add(timeout); !cond(); time.Sleep(10 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}
