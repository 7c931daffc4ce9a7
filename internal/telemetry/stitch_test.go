package telemetry

import (
	"bytes"
	"strings"
	"testing"
)

func TestSpanRefHeaderRoundTrip(t *testing.T) {
	cases := []SpanRef{
		{ID: 1, Track: "freq:0000"},
		{ID: 0xdeadbeefcafef00d, Track: "req:0042"},
		{ID: 7, Track: ""},
		{ID: 0x00000000000000ff, Track: "with;semicolon"},
	}
	for _, ref := range cases {
		s := FormatSpanRef(ref)
		got, ok := ParseSpanRef(s)
		if !ok {
			t.Fatalf("ParseSpanRef(%q) not ok", s)
		}
		if got != ref {
			t.Fatalf("round trip %q: got %+v want %+v", s, got, ref)
		}
	}
	if s := FormatSpanRef(SpanRef{}); s != "" {
		t.Fatalf("zero ref formatted to %q, want empty", s)
	}
	for _, bad := range []string{"", "nope", "123;track", strings.Repeat("0", 16) + ";t", "zzzzzzzzzzzzzzzz;t", strings.Repeat("f", 16)} {
		if ref, ok := ParseSpanRef(bad); ok {
			t.Fatalf("ParseSpanRef(%q) accepted as %+v", bad, ref)
		}
	}
}

// FuzzParseSpanRef: the trace-parent header crosses a process
// boundary, so ParseSpanRef must never panic on arbitrary input, and
// any ref it accepts must survive FormatSpanRef and a second parse
// unchanged.
func FuzzParseSpanRef(f *testing.F) {
	for _, ref := range []SpanRef{
		{ID: 1, Track: "freq:0000"},
		{ID: 0xdeadbeefcafef00d, Track: "req:0042"},
		{ID: 7},
		{ID: 0xff, Track: "with;semicolon"},
	} {
		f.Add(FormatSpanRef(ref))
	}
	for _, header := range []string{
		"", "nope", "123;track", // short ID
		strings.Repeat("0", 16) + ";t", // zero ID
		strings.Repeat("f", 16),        // no ';'
		"zzzzzzzzzzzzzzzz;t",           // not hex
		"0x00000000000001;t", "+000000000000001;t",
		"DEADBEEFCAFEF00D;t", // upper case: accepted, formats lower case
	} {
		f.Add(header)
	}
	f.Fuzz(func(t *testing.T, s string) {
		ref, ok := ParseSpanRef(s)
		if !ok {
			if ref != (SpanRef{}) {
				t.Fatalf("rejected %q but returned %+v", s, ref)
			}
			return
		}
		again, ok := ParseSpanRef(FormatSpanRef(ref))
		if !ok || again != ref {
			t.Fatalf("accepted %q as %+v; its formatted form %q parses to %+v, %v",
				s, ref, FormatSpanRef(ref), again, ok)
		}
	})
}

// TestAnchorSpansNormalizesSkewedClocks is the cross-process skew
// regression: every process anchors StartUS to its own epoch, so a
// backend started hours before (or after) the front door ships spans
// whose raw timestamps are wildly offset. Anchoring must slide the
// whole attempt subtree so its root lands exactly on the front door's
// attempt span while relative offsets inside the subtree survive, and
// a trace stitched from two deliberately skewed backends must still
// pass ValidateChromeTrace.
func TestAnchorSpansNormalizesSkewedClocks(t *testing.T) {
	const attemptID = SpanID(0x42)
	backend := []SpanRecord{
		{ID: 10, Parent: attemptID, Track: "freq:0000", Name: "request", StartUS: 9e12, DurUS: 500},
		{ID: 11, Parent: 10, Track: "freq:0000", Name: "admission", StartUS: 9e12 + 10, DurUS: 20},
		{ID: 12, Parent: 10, Track: "freq:0000", Name: "worker.serve", StartUS: 9e12 + 40, DurUS: 400},
	}
	anchored := AnchorSpans(backend, attemptID, 1000)
	if backend[0].StartUS != 9e12 {
		t.Fatal("AnchorSpans mutated its input")
	}
	if got := anchored[0].StartUS; got != 1000 {
		t.Fatalf("root anchored at %v, want 1000", got)
	}
	if got := anchored[1].StartUS - anchored[0].StartUS; got != 10 {
		t.Fatalf("admission offset %v, want 10", got)
	}
	if got := anchored[2].StartUS - anchored[0].StartUS; got != 40 {
		t.Fatalf("worker offset %v, want 40", got)
	}

	// A second backend skewed the other way (its epoch is "newer", so
	// raw timestamps are tiny) anchors onto the same timeline.
	late := []SpanRecord{
		{ID: 20, Parent: attemptID, Track: "freq:0000", Name: "request", StartUS: 3, DurUS: 200},
		{ID: 21, Parent: 20, Track: "freq:0000", Name: "worker.serve", StartUS: 7, DurUS: 100},
	}
	anchored2 := AnchorSpans(late, attemptID, 2000)
	if got := anchored2[0].StartUS; got != 2000 {
		t.Fatalf("second root anchored at %v, want 2000", got)
	}

	front := []SpanRecord{
		{ID: uint64ID(0x41), Track: "freq:0000", Name: "request", Proc: "front", StartUS: 900, DurUS: 1500},
		{ID: attemptID, Parent: uint64ID(0x41), Track: "freq:0000", Name: "attempt", Proc: "front", StartUS: 1000, DurUS: 600},
	}
	stitched := append(front, anchored...)
	for i := range stitched[len(front):] {
		stitched[len(front)+i].Proc = "backend a"
	}
	for _, s := range anchored2 {
		s.Proc = "backend b"
		stitched = append(stitched, s)
	}
	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, stitched); err != nil {
		t.Fatal(err)
	}
	if err := ValidateChromeTrace(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("stitched skewed trace invalid: %v", err)
	}
	out := buf.String()
	for _, want := range []string{`"process_name"`, `"front"`, `"backend a"`, `"backend b"`} {
		if !strings.Contains(out, want) {
			t.Fatalf("stitched trace missing %s:\n%s", want, out)
		}
	}
}

// uint64ID keeps literals readable above.
func uint64ID(v uint64) SpanID { return SpanID(v) }

// TestAnchorSpansWithoutMatchingRoot falls back to the earliest span
// so a malformed ship (no span parented under the attempt) still lands
// near the anchor instead of hours away.
func TestAnchorSpansWithoutMatchingRoot(t *testing.T) {
	spans := []SpanRecord{
		{ID: 2, Parent: 1, Track: "t", Name: "b", StartUS: 5e9 + 50, DurUS: 1},
		{ID: 1, Track: "t", Name: "a", StartUS: 5e9, DurUS: 100},
	}
	out := AnchorSpans(spans, SpanID(0x999), 100)
	if got := out[1].StartUS; got != 100 {
		t.Fatalf("earliest span anchored at %v, want 100", got)
	}
	if got := out[0].StartUS; got != 150 {
		t.Fatalf("child span at %v, want 150", got)
	}
	if AnchorSpans(nil, 1, 0) != nil {
		t.Fatal("anchoring no spans should yield nil")
	}
}

// TestAdoptSpansStitchesUnderLocalParent exercises the full adoption
// path: a "front" collector mints an attempt span, a "backend"
// collector in the same test parents its tree under the shipped ref,
// and the front adopts the backend's records. The stitched set must
// form one connected tree (no dangling parents) with per-process
// labels, and the backend's span IDs must be reproducible from the
// ref alone.
func TestAdoptSpansStitchesUnderLocalParent(t *testing.T) {
	front, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	front.SetProc("front")
	back, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}

	rsp := front.StartSpan("freq:0000", "request")
	att := rsp.Child("attempt")

	ref, ok := ParseSpanRef(FormatSpanRef(att.Ref()))
	if !ok {
		t.Fatal("attempt ref did not survive the header round trip")
	}
	bsp := back.StartSpanUnder(ref, "request")
	bsp.Child("worker.serve").End()
	bsp.End()

	shipped := back.Spans()
	if len(shipped) != 2 {
		t.Fatalf("backend shipped %d spans, want 2", len(shipped))
	}
	anchored := AnchorSpans(shipped, att.Ref().ID, att.StartUS())
	for i := range anchored {
		anchored[i].Proc = "backend 127.0.0.1:9"
	}
	front.AdoptSpans(anchored)
	att.End()
	rsp.End()

	all := front.Spans()
	if len(all) != 4 {
		t.Fatalf("stitched trace has %d spans, want 4", len(all))
	}
	ids := map[SpanID]bool{}
	for _, s := range all {
		ids[s.ID] = true
	}
	byProc := map[string]int{}
	for _, s := range all {
		byProc[s.Proc]++
		if s.Parent != 0 && !ids[s.Parent] {
			t.Fatalf("span %s has dangling parent %016x", s.Name, uint64(s.Parent))
		}
	}
	if byProc["front"] != 2 || byProc["backend 127.0.0.1:9"] != 2 {
		t.Fatalf("per-process span counts %v, want 2 front + 2 backend", byProc)
	}

	// Deterministic stitching: a second backend collector given the
	// same ref derives identical IDs.
	back2, _ := New(Config{})
	bsp2 := back2.StartSpanUnder(ref, "request")
	bsp2.Child("worker.serve").End()
	bsp2.End()
	again := back2.Spans()
	for i, s := range again {
		if s.ID != shipped[i].ID || s.Parent != shipped[i].Parent {
			t.Fatalf("replayed backend span %d identity (%x,%x) != (%x,%x)",
				i, s.ID, s.Parent, shipped[i].ID, shipped[i].Parent)
		}
	}
}

// TestSpanRecordAndStartUS covers the handle accessors adoption relies
// on.
func TestSpanRecordAndStartUS(t *testing.T) {
	col, err := New(Config{})
	if err != nil {
		t.Fatal(err)
	}
	sp := col.StartSpan("t", "op")
	if _, ok := sp.Record(); ok {
		t.Fatal("Record ok before End")
	}
	if sp.StartUS() <= 0 {
		t.Fatal("StartUS not positive for a live span")
	}
	sp.End()
	rec, ok := sp.Record()
	if !ok || rec.Name != "op" || rec.StartUS != sp.StartUS() {
		t.Fatalf("Record after End = %+v ok=%v", rec, ok)
	}
	var nilSpan *Span
	if _, ok := nilSpan.Record(); ok || nilSpan.StartUS() != 0 {
		t.Fatal("nil span accessors not inert")
	}
}
