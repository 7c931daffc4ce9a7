package service

import (
	"strings"
	"testing"

	"resemble/internal/cas"
	"resemble/internal/trace"
)

// FuzzRunRequest drives /v1/run body decoding with arbitrary bytes: it
// must never panic, and every request it accepts must be one a worker
// can serve — a known workload and controller, 1..MaxAccesses accesses,
// fixed_frac <= 14, and a resume_from that names a parseable store ID.
func FuzzRunRequest(f *testing.F) {
	for _, body := range []string{
		`{"workload":"433.milc","controller":"resemble-t","accesses":1000}`,
		`{"workload":"471.omnetpp","controller":"sbp-e"}`,
		`{"workload":"433.milc","controller":"resemble","fixed_frac":14,"seed":-3}`,
		`{"workload":"433.milc","controller":"bo","resume_from":"` + strings.Repeat("ab", 32) + `"}`,
		`{"workload":"433.milc","controller":"none","resume_from":"not-a-hash"}`,
		`{"workload":"433.milc","controller":"spp","accesses":-1}`,
		`{"workload":"433.milc","controller":"isb","accesses":5001}`,
		`{"workload":"433.milc","controller":"domino","fixed_frac":15}`,
		`{"workload":"433.milc","controller":"domino","fixed_frac":-1}`,
		`{"workload":"433.milc","controller":"resemble-t","accesses":1e99}`,
		`{"workload":"nope","controller":"resemble-t"}`,
		`{"workload":"433.milc","controller":"nope"}`,
		`{"workload":"433.milc"}`,
		`null`, `[]`, `"x"`, `{`, ``,
	} {
		f.Add([]byte(body))
	}
	store, _, err := cas.Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	s, err := New(Config{DefaultAccesses: 1000, MaxAccesses: 5000, Store: store})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := s.decodeRun(strings.NewReader(string(body)))
		if err != nil {
			if err.Error() == "" {
				t.Fatal("rejection without a message")
			}
			return
		}
		if _, err := trace.Lookup(req.Workload); err != nil {
			t.Fatalf("accepted unknown workload %q", req.Workload)
		}
		if !validController(req.Controller) {
			t.Fatalf("accepted unknown controller %q", req.Controller)
		}
		if req.Accesses < 1 || req.Accesses > 5000 {
			t.Fatalf("accepted accesses %d outside [1,5000]", req.Accesses)
		}
		if req.FixedFrac > 14 {
			t.Fatalf("accepted fixed_frac %d", req.FixedFrac)
		}
		if req.ResumeFrom != "" {
			if _, err := cas.ParseID(req.ResumeFrom); err != nil {
				t.Fatalf("accepted resume_from %q: %v", req.ResumeFrom, err)
			}
		}
	})
}
