package pprofparse

import (
	"bytes"
	"compress/gzip"
	"runtime"
	rpprof "runtime/pprof"
	"strings"
	"testing"
)

// --- synthetic profile encoder -------------------------------------
//
// A miniature protobuf writer so tests can construct profiles with
// known contents (including packed vs unpacked repeated fields) and
// assert exact decoded output.

type enc struct{ b bytes.Buffer }

func (e *enc) varint(v uint64) {
	for v >= 0x80 {
		e.b.WriteByte(byte(v) | 0x80)
		v >>= 7
	}
	e.b.WriteByte(byte(v))
}

func (e *enc) tag(field, wire int) { e.varint(uint64(field)<<3 | uint64(wire)) }

func (e *enc) intField(field int, v uint64) {
	e.tag(field, 0)
	e.varint(v)
}

func (e *enc) bytesField(field int, body []byte) {
	e.tag(field, 2)
	e.varint(uint64(len(body)))
	e.b.Write(body)
}

func (e *enc) packed(field int, vs ...uint64) {
	var p enc
	for _, v := range vs {
		p.varint(v)
	}
	e.bytesField(field, p.b.Bytes())
}

// buildTestProfile encodes a two-sample alloc profile:
//
//	main.leafA -> main.rootC   10 objects / 1000 bytes
//	main.leafB -> main.rootC   5 objects / 500 bytes
func buildTestProfile(t *testing.T, gzipped bool) []byte {
	t.Helper()
	strs := []string{"", "alloc_objects", "count", "alloc_space", "bytes",
		"main.leafA", "main.leafB", "main.rootC", "main.go", "space"}
	idx := func(s string) uint64 {
		for i, v := range strs {
			if v == s {
				return uint64(i)
			}
		}
		t.Fatalf("string %q not in table", s)
		return 0
	}

	var p enc
	vt := func(typ, unit string) []byte {
		var v enc
		v.intField(1, idx(typ))
		v.intField(2, idx(unit))
		return v.b.Bytes()
	}
	p.bytesField(1, vt("alloc_objects", "count"))
	p.bytesField(1, vt("alloc_space", "bytes"))

	fn := func(id uint64, name string) []byte {
		var v enc
		v.intField(1, id)
		v.intField(2, idx(name))
		v.intField(4, idx("main.go"))
		return v.b.Bytes()
	}
	p.bytesField(5, fn(1, "main.leafA"))
	p.bytesField(5, fn(2, "main.leafB"))
	p.bytesField(5, fn(3, "main.rootC"))

	loc := func(id, funcID uint64, line uint64) []byte {
		var l enc
		l.intField(1, funcID)
		l.intField(2, line)
		var v enc
		v.intField(1, id)
		v.bytesField(4, l.b.Bytes())
		return v.b.Bytes()
	}
	p.bytesField(4, loc(1, 1, 10))
	p.bytesField(4, loc(2, 2, 20))
	p.bytesField(4, loc(3, 3, 30))

	// Sample 1 uses packed encoding, sample 2 unpacked — both legal.
	var s1 enc
	s1.packed(1, 1, 3) // leafA -> rootC
	s1.packed(2, 10, 1000)
	p.bytesField(2, s1.b.Bytes())
	var s2 enc
	s2.intField(1, 2) // leafB -> rootC, unpacked
	s2.intField(1, 3)
	s2.intField(2, 5)
	s2.intField(2, 500)
	p.bytesField(2, s2.b.Bytes())

	for _, s := range strs {
		p.bytesField(6, []byte(s))
	}
	p.bytesField(11, vt("alloc_space", "space"))
	p.intField(12, 524288)
	p.intField(9, 12345)

	raw := p.b.Bytes()
	if !gzipped {
		return raw
	}
	var gz bytes.Buffer
	zw := gzip.NewWriter(&gz)
	zw.Write(raw)
	zw.Close()
	return gz.Bytes()
}

func TestDecodeSynthetic(t *testing.T) {
	for _, gzipped := range []bool{false, true} {
		p, err := ParseData(buildTestProfile(t, gzipped))
		if err != nil {
			t.Fatalf("gzipped=%v: %v", gzipped, err)
		}
		if got := len(p.SampleTypes); got != 2 {
			t.Fatalf("sample types = %d, want 2", got)
		}
		if p.SampleTypes[1] != (ValueType{Type: "alloc_space", Unit: "bytes"}) {
			t.Errorf("sample type 1 = %+v", p.SampleTypes[1])
		}
		if p.Period != 524288 || p.TimeNanos != 12345 {
			t.Errorf("period=%d time=%d", p.Period, p.TimeNanos)
		}
		if len(p.Samples) != 2 {
			t.Fatalf("samples = %d, want 2", len(p.Samples))
		}
		s := p.Samples[0]
		if len(s.Stack) != 2 || s.Stack[0].Func != "main.leafA" || s.Stack[1].Func != "main.rootC" {
			t.Errorf("sample 0 stack = %+v", s.Stack)
		}
		if s.Stack[0].File != "main.go" || s.Stack[0].Line != 10 {
			t.Errorf("sample 0 leaf frame = %+v", s.Stack[0])
		}
		if len(s.Values) != 2 || s.Values[0] != 10 || s.Values[1] != 1000 {
			t.Errorf("sample 0 values = %v", s.Values)
		}
		if p.Samples[1].Stack[0].Func != "main.leafB" {
			t.Errorf("sample 1 leaf = %+v", p.Samples[1].Stack)
		}
	}
}

func TestTopFlatAndCum(t *testing.T) {
	p, err := ParseData(buildTestProfile(t, true))
	if err != nil {
		t.Fatal(err)
	}
	space := p.TypeIndex("alloc_space")
	if space != 1 {
		t.Fatalf("alloc_space index = %d", space)
	}
	top := p.Top(space, 0)
	if len(top) != 3 {
		t.Fatalf("top entries = %d, want 3 (%+v)", len(top), top)
	}
	// Flat: leafA 1000, leafB 500, rootC 0. Cum: rootC 1500.
	if top[0].Func != "main.leafA" || top[0].Flat != 1000 || top[0].Cum != 1000 {
		t.Errorf("top[0] = %+v", top[0])
	}
	byName := map[string]Entry{}
	for _, e := range top {
		byName[e.Func] = e
	}
	if e := byName["main.rootC"]; e.Flat != 0 || e.Cum != 1500 {
		t.Errorf("rootC = %+v", e)
	}
	if got := p.Total(space); got != 1500 {
		t.Errorf("total = %d, want 1500", got)
	}
	if n := len(p.Top(space, 2)); n != 2 {
		t.Errorf("top-2 len = %d", n)
	}
	if p.TopByName("no_such_type", 5) != nil {
		t.Error("TopByName on missing type should be nil")
	}
}

// TestAllocsProfileRoundTrip captures a real heap profile from the
// running process and round-trips it through the decoder: the profile
// must expose the standard four heap sample types and attribute the
// large allocation below to this test function. scripts/check.sh runs
// this test by name as the profiling gate.
func TestAllocsProfileRoundTrip(t *testing.T) {
	sink = make([]byte, 4<<20)
	runtime.GC() // publish the allocation to the profile

	var buf bytes.Buffer
	if err := rpprof.Lookup("allocs").WriteTo(&buf, 0); err != nil {
		t.Fatal(err)
	}
	p, err := ParseData(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"alloc_objects", "alloc_space", "inuse_objects", "inuse_space"} {
		if p.TypeIndex(want) < 0 {
			t.Errorf("sample type %q missing (have %+v)", want, p.SampleTypes)
		}
	}
	if len(p.Samples) == 0 {
		t.Fatal("no samples decoded")
	}
	top := p.TopByName("alloc_space", 0)
	found := false
	for _, e := range top {
		if strings.Contains(e.Func, "pprofparse") && strings.Contains(e.Func, "TestAllocsProfileRoundTrip") {
			if e.Flat < 4<<20 {
				t.Errorf("test allocation flat = %d, want >= 4MiB", e.Flat)
			}
			found = true
		}
	}
	if !found {
		t.Errorf("test's own 4MiB allocation not attributed; top = %+v", top[:min(5, len(top))])
	}
	keepSink(sink)
}

var sink []byte

//go:noinline
func keepSink(b []byte) { _ = b }

func TestParseErrors(t *testing.T) {
	if _, err := ParseData([]byte{0x1f, 0x8b, 0x00}); err == nil {
		t.Error("truncated gzip header should fail")
	}
	if _, err := ParseData([]byte("not a profile at all")); err == nil {
		t.Error("garbage should fail")
	}
	if _, err := ParseData(nil); err == nil {
		t.Error("empty input should fail")
	}
	// A profile truncated mid-message fails rather than silently
	// decoding half the samples.
	full := buildTestProfile(t, false)
	if _, err := ParseData(full[:len(full)/2]); err == nil {
		t.Error("truncated protobuf should fail")
	}
}
