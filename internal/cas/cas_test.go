package cas

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func mustOpen(t *testing.T, dir string) (*Store, SweepReport) {
	t.Helper()
	s, rep, err := Open(dir)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return s, rep
}

func TestPutGetRoundTrip(t *testing.T) {
	s, rep := mustOpen(t, t.TempDir())
	if !rep.Clean() {
		t.Fatalf("fresh store sweep not clean: %v", rep)
	}
	data := []byte("the quick brown fox")
	id, err := s.Put(KindTrace, data)
	if err != nil {
		t.Fatalf("Put: %v", err)
	}
	if id != Sum(data) {
		t.Fatalf("Put returned ID %s, want %s", id, Sum(data))
	}
	got, kind, err := s.Get(id)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if !bytes.Equal(got, data) || kind != KindTrace {
		t.Fatalf("Get = (%q, %s), want (%q, %s)", got, kind, data, KindTrace)
	}
}

func TestPutDeduplicates(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	data := []byte("same bytes twice")
	id1, err := s.Put(KindModel, data)
	if err != nil {
		t.Fatalf("Put 1: %v", err)
	}
	id2, err := s.Put(KindModel, data)
	if err != nil {
		t.Fatalf("Put 2: %v", err)
	}
	if id1 != id2 {
		t.Fatalf("dedup broken: %s != %s", id1, id2)
	}
	st := s.Stats()
	if st.Blobs != 1 || st.PutDedups != 1 {
		t.Fatalf("stats = %+v, want 1 blob and 1 dedup", st)
	}
	// Same content under a different kind is a caller bug, not a
	// second blob.
	if _, err := s.Put(KindTrace, data); err == nil {
		t.Fatal("cross-kind Put of identical bytes unexpectedly succeeded")
	}
}

func TestGetUnknownID(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	_, _, err := s.Get(Sum([]byte("never stored")))
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get unknown = %v, want ErrNotFound", err)
	}
}

// The index is authoritative: a valid blob file on disk with no index
// entry must not be served until a sweep re-adopts it.
func TestIndexAuthoritative(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	data := []byte("orphan-to-be")
	id := Sum(data)
	// Plant the blob file directly, bypassing Put.
	path := s.blobPath(KindTrace, id)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("unindexed blob served: err=%v, want ErrNotFound", err)
	}
	// Reopen: the sweep verifies and adopts the orphan.
	s2, rep := mustOpen(t, dir)
	if rep.Adopted != 1 {
		t.Fatalf("sweep adopted %d, want 1 (%v)", rep.Adopted, rep)
	}
	got, kind, err := s2.Get(id)
	if err != nil || !bytes.Equal(got, data) || kind != KindTrace {
		t.Fatalf("adopted blob Get = (%q, %s, %v)", got, kind, err)
	}
}

func TestCorruptBlobQuarantinedOnGet(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	data := []byte("soon to be flipped")
	id, err := s.Put(KindCheckpoint, data)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the stored blob behind the store's back.
	path := s.blobPath(KindCheckpoint, id)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[3] ^= 0x40
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Get(id)
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Get corrupt blob = %v, want ErrCorrupt", err)
	}
	// The blob is gone from serving and sits in quarantine.
	if s.Has(id) {
		t.Fatal("corrupt blob still indexed after Get")
	}
	q, err := filepath.Glob(filepath.Join(dir, "quarantine", "*hash-mismatch*"))
	if err != nil || len(q) != 1 {
		t.Fatalf("quarantine glob = (%v, %v), want exactly one file", q, err)
	}
	// A second Get is a plain miss, not another quarantine.
	if _, _, err := s.Get(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("second Get = %v, want ErrNotFound", err)
	}
}

func TestTagsResolveAndUntag(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	id, err := s.Put(KindModel, []byte("weights"))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Tag("model/dqn/latest", id); err != nil {
		t.Fatalf("Tag: %v", err)
	}
	got, ok := s.Resolve("model/dqn/latest")
	if !ok || got != id {
		t.Fatalf("Resolve = (%s, %v), want (%s, true)", got, ok, id)
	}
	if err := s.Tag("bad name", id); err == nil {
		t.Fatal("Tag with whitespace accepted")
	}
	if err := s.Tag("model/none", Sum([]byte("missing"))); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Tag unknown blob = %v, want ErrNotFound", err)
	}
	removed, err := s.Untag("model/dqn/latest")
	if err != nil || !removed {
		t.Fatalf("Untag = (%v, %v)", removed, err)
	}
	if _, ok := s.Resolve("model/dqn/latest"); ok {
		t.Fatal("tag survived Untag")
	}
}

func TestUntagPrefixAndTagsListing(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	id, err := s.Put(KindCheckpoint, []byte("ckp"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"ckp/run1/100", "ckp/run1/200", "ckp/run2/100"} {
		if err := s.Tag(name, id); err != nil {
			t.Fatal(err)
		}
	}
	got := s.Tags("ckp/run1/")
	if len(got) != 2 || got[0] != "ckp/run1/100" || got[1] != "ckp/run1/200" {
		t.Fatalf("Tags(ckp/run1/) = %v", got)
	}
	n, err := s.UntagPrefix("ckp/run1/")
	if err != nil || n != 2 {
		t.Fatalf("UntagPrefix = (%d, %v), want 2", n, err)
	}
	if left := s.Tags("ckp/"); len(left) != 1 || left[0] != "ckp/run2/100" {
		t.Fatalf("tags after UntagPrefix = %v", left)
	}
}

func TestGCRespectsRefsAndTags(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	loose, err := s.Put(KindTrace, []byte("loose"))
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := s.Put(KindTrace, []byte("pinned"))
	if err != nil {
		t.Fatal(err)
	}
	tagged, err := s.PutTagged(KindTrace, []byte("tagged"), "keep/me")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddRef(pinned); err != nil {
		t.Fatal(err)
	}
	removed, freed, err := s.GC()
	if err != nil {
		t.Fatalf("GC: %v", err)
	}
	if removed != 1 || freed != int64(len("loose")) {
		t.Fatalf("GC removed %d blobs / %d bytes, want 1 / %d", removed, freed, len("loose"))
	}
	if s.Has(loose) || !s.Has(pinned) || !s.Has(tagged) {
		t.Fatalf("GC kept wrong set: loose=%v pinned=%v tagged=%v", s.Has(loose), s.Has(pinned), s.Has(tagged))
	}
	// Releasing the ref and untagging makes both collectable.
	if err := s.Release(pinned); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Untag("keep/me"); err != nil {
		t.Fatal(err)
	}
	removed, _, err = s.GC()
	if err != nil || removed != 2 {
		t.Fatalf("second GC = (%d, %v), want 2 removed", removed, err)
	}
	if st := s.Stats(); st.Blobs != 0 || st.Bytes != 0 {
		t.Fatalf("stats after full GC = %+v", st)
	}
}

// TestDropPrefixRemovesOnlyWhatItUntagged pins the completed-run
// cleanup: the prefix's tags go, and with them the blobs only those
// tags rooted; an unrooted blob stored with a plain Put, a blob also
// tagged elsewhere and a referenced blob all survive, and the index
// on disk agrees after a reopen.
func TestDropPrefixRemovesOnlyWhatItUntagged(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	put := func(data string, tags ...string) ID {
		t.Helper()
		id, err := s.PutTagged(KindCheckpoint, []byte(data), tags...)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	plain := put("plain put, never tagged")
	own1 := put("run checkpoint 1", "ckp/run/1")
	own2 := put("run checkpoint 2", "ckp/run/2", "ckp/run/latest")
	shared := put("run checkpoint 3", "ckp/run/3", "keep/elsewhere")
	pinned := put("run checkpoint 4", "ckp/run/4")
	if err := s.AddRef(pinned); err != nil {
		t.Fatal(err)
	}
	other := put("another run", "ckp/runner/1")

	untagged, removed, err := s.DropPrefix("ckp/run/")
	if err != nil {
		t.Fatal(err)
	}
	if untagged != 5 || removed != 2 {
		t.Fatalf("DropPrefix = %d untagged, %d removed; want 5, 2", untagged, removed)
	}
	check := func(s *Store) {
		t.Helper()
		for _, id := range []ID{plain, shared, pinned, other} {
			if !s.Has(id) {
				t.Errorf("blob %s was removed", id)
			}
		}
		for _, id := range []ID{own1, own2} {
			if s.Has(id) {
				t.Errorf("blob %s survived its only tags", id)
			}
			if _, err := os.Stat(s.blobPath(KindCheckpoint, id)); !os.IsNotExist(err) {
				t.Errorf("blob file %s still on disk (%v)", id, err)
			}
		}
		if tags := s.Tags("ckp/run/"); len(tags) != 0 {
			t.Errorf("tags left under the prefix: %v", tags)
		}
		if tags := s.Tags(""); len(tags) != 2 {
			t.Errorf("tags = %v, want keep/elsewhere and ckp/runner/1", tags)
		}
		if st := s.Stats(); st.Blobs != 4 {
			t.Errorf("stats report %d blobs, want 4", st.Blobs)
		}
	}
	check(s)
	if _, _, err := s.DropPrefix("ckp/run/"); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, rep := mustOpen(t, dir)
	if !rep.Clean() {
		t.Fatalf("reopen sweep not clean: %v", rep)
	}
	check(s2)
}

func TestPersistenceAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	s, _ := mustOpen(t, dir)
	id, err := s.PutTagged(KindModel, []byte("durable weights"), "model/latest")
	if err != nil {
		t.Fatal(err)
	}
	if err := s.AddRef(id); err != nil {
		t.Fatal(err)
	}
	s2, rep := mustOpen(t, dir)
	if !rep.Clean() {
		t.Fatalf("reopen sweep not clean: %v", rep)
	}
	got, ok := s2.Resolve("model/latest")
	if !ok || got != id {
		t.Fatalf("tag lost across reopen: (%s, %v)", got, ok)
	}
	if _, _, refs, err := s2.Stat(id); err != nil || refs != 1 {
		t.Fatalf("refcount lost across reopen: refs=%d err=%v", refs, err)
	}
}

func TestParseIDRejectsBadInput(t *testing.T) {
	for _, bad := range []string{"", "abc", "zz" + Sum(nil).String()[2:], Sum(nil).String() + "00"} {
		if _, err := ParseID(bad); err == nil {
			t.Errorf("ParseID(%q) accepted", bad)
		}
	}
	id := Sum([]byte("x"))
	back, err := ParseID(id.String())
	if err != nil || back != id {
		t.Fatalf("ParseID round-trip: (%s, %v)", back, err)
	}
}

func TestConcurrentPutGetTagGC(t *testing.T) {
	s, _ := mustOpen(t, t.TempDir())
	done := make(chan error, 8)
	for w := 0; w < 4; w++ {
		go func(w int) {
			var err error
			for i := 0; i < 25; i++ {
				data := []byte(fmt.Sprintf("worker %d blob %d", w, i))
				var id ID
				if id, err = s.PutTagged(KindTrace, data, fmt.Sprintf("w%d/i%d", w, i)); err != nil {
					break
				}
				var got []byte
				if got, _, err = s.Get(id); err != nil {
					break
				}
				if !bytes.Equal(got, data) {
					err = fmt.Errorf("round-trip mismatch for %s", id)
					break
				}
			}
			done <- err
		}(w)
	}
	for g := 0; g < 4; g++ {
		go func() {
			var err error
			for i := 0; i < 10; i++ {
				if _, _, err = s.GC(); err != nil {
					break
				}
			}
			done <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	// Every tagged blob must have survived the concurrent GCs.
	for w := 0; w < 4; w++ {
		for i := 0; i < 25; i++ {
			id, ok := s.Resolve(fmt.Sprintf("w%d/i%d", w, i))
			if !ok || !s.Has(id) {
				t.Fatalf("tagged blob w%d/i%d lost (ok=%v)", w, i, ok)
			}
		}
	}
}
