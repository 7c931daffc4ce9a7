// Package cas implements a durable content-addressed artifact store:
// blobs identified by the SHA-256 of their content, written atomically
// (temp + rename, the checkpoint.WriteFileRetry idiom), verified
// against their full hash on every read, reference-counted for GC and
// addressable through named tags.
//
// The store holds the three artifact kinds the fleet shares between
// instances — generated traces, checkpoint containers and serialized
// DQN/tabular models — so identical workloads generate once per
// machine, a run interrupted on one backend resumes on another from
// its last durable checkpoint, and trained state warm-starts new
// instances.
//
// Layout under the store root:
//
//	blobs/<kind>/<hh>/<hex64>   blob files (hh = first two hex digits)
//	index                       the blob/tag index (see index.go)
//	lock                        cross-process advisory lock file
//	quarantine/                 corrupt or torn files moved aside
//
// Durability contract (DESIGN.md §14):
//
//   - writes are atomic and power-loss durable: a blob either exists
//     under its final name with exactly its content, or not at all —
//     temp + fsync + rename + parent-directory fsync, so a crash
//     mid-write (SIGKILL or host power loss) leaves only a torn temp
//     file, never a half blob;
//   - reads verify: Get recomputes the full SHA-256 and refuses to
//     return bytes that do not hash to the requested ID — a corrupt
//     blob is quarantined, never served;
//   - the index is authoritative: a blob without an index entry is
//     not served (Get reports ErrNotFound) until the recovery sweep
//     re-verifies and re-adopts it;
//   - Open sweeps: torn temp files are quarantined, every indexed
//     blob is re-verified (corrupt ones quarantined), verified
//     orphans are re-adopted, and dangling index entries dropped —
//     so a store that just survived a SIGKILL opens clean;
//   - one directory, many processes: every operation holds an
//     exclusive advisory flock on <root>/lock and re-reads the index
//     before acting, so separate processes sharing one store
//     directory (a resemblefront coordinator and its resembled
//     backends) see each other's blobs and tags, index writes never
//     lose a sibling's entries to a stale rewrite, and GC never
//     collects a blob another process has tagged. The kernel releases
//     the lock when a process dies, so a SIGKILLed writer cannot
//     wedge the store. The directory must live on a local filesystem
//     (flock over network filesystems is unreliable); on platforms
//     without flock the store is single-process only.
package cas

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// Kind classifies an artifact. The kind is part of the on-disk layout
// so the recovery sweep can re-adopt orphan blobs with their kind
// intact.
type Kind string

// The artifact kinds the store accepts.
const (
	KindTrace      Kind = "trace"
	KindCheckpoint Kind = "checkpoint"
	KindModel      Kind = "model"
)

// Kinds lists the accepted artifact kinds.
func Kinds() []Kind { return []Kind{KindTrace, KindCheckpoint, KindModel} }

func validKind(k Kind) bool {
	switch k {
	case KindTrace, KindCheckpoint, KindModel:
		return true
	}
	return false
}

// ID is a content identifier: the SHA-256 of the blob's bytes.
type ID [sha256.Size]byte

// Sum computes the content ID of data.
func Sum(data []byte) ID { return sha256.Sum256(data) }

// String returns the lowercase hex form of the ID.
func (id ID) String() string { return hex.EncodeToString(id[:]) }

// IsZero reports whether the ID is the zero value (no blob hashes to
// it in practice; used as the "absent" sentinel).
func (id ID) IsZero() bool { return id == ID{} }

// ParseID parses the 64-hex-digit form of an ID.
func ParseID(s string) (ID, error) {
	var id ID
	if len(s) != hex.EncodedLen(sha256.Size) {
		return id, fmt.Errorf("cas: bad ID length %d (want %d hex digits)", len(s), hex.EncodedLen(sha256.Size))
	}
	b, err := hex.DecodeString(s)
	if err != nil {
		return id, fmt.Errorf("cas: bad ID: %w", err)
	}
	copy(id[:], b)
	return id, nil
}

// Errors returned by store operations.
var (
	// ErrNotFound reports an ID or tag the index does not know.
	ErrNotFound = errors.New("cas: artifact not found")
	// ErrCorrupt reports a blob whose bytes no longer hash to its ID;
	// the blob has been quarantined and will never be served.
	ErrCorrupt = errors.New("cas: artifact corrupt (quarantined)")
)

// entry is one indexed blob.
type entry struct {
	kind Kind
	size int64
	refs int
}

// Store is a content-addressed artifact store rooted at one
// directory, safe for concurrent use within a process (an internal
// mutex) and across processes (an advisory flock on <root>/lock taken
// for the span of each operation). Every operation re-reads the index
// under the lock before acting, so mutations by sibling processes —
// new checkpoints, tags, GC — are always visible; all mutating
// operations persist the index atomically before returning.
type Store struct {
	mu    sync.Mutex
	dir   string
	lockF *os.File // <root>/lock handle; flocked per operation
	blob  map[ID]*entry
	tags  map[string]ID
	// lastIdx is the raw index bytes the in-memory view was last
	// loaded from or persisted as; reloadLocked skips the re-parse
	// when the file is unchanged (the common single-process case).
	lastIdx []byte

	stats Stats
}

// Stats is a point-in-time snapshot of store effectiveness counters.
type Stats struct {
	Blobs       int    `json:"blobs"`
	Bytes       int64  `json:"bytes"`
	Tags        int    `json:"tags"`
	Puts        uint64 `json:"puts"`
	PutDedups   uint64 `json:"put_dedups"`
	Gets        uint64 `json:"gets"`
	GetMisses   uint64 `json:"get_misses"`
	CorruptGets uint64 `json:"corrupt_gets"`
	Quarantined uint64 `json:"quarantined"`
	GCRemoved   uint64 `json:"gc_removed"`
}

// SweepReport describes what the crash-recovery sweep found and did
// while opening the store.
type SweepReport struct {
	// TornTemps counts temp files from interrupted writes moved to
	// quarantine.
	TornTemps int
	// Corrupt counts blobs whose content no longer hashed to their
	// name, were misnamed, or duplicated an already-verified ID under
	// a second kind directory; all were quarantined.
	Corrupt int
	// Adopted counts verified orphan blobs (present on disk, missing
	// from the index) re-added with zero refs.
	Adopted int
	// Dangling counts index entries whose blob file was missing; all
	// were dropped.
	Dangling int
	// IndexRebuilt reports that the index file was unreadable or
	// corrupt and was quarantined and rebuilt from the blobs.
	IndexRebuilt bool
}

// Clean reports a sweep that found nothing to repair.
func (r SweepReport) Clean() bool {
	return r.TornTemps == 0 && r.Corrupt == 0 && r.Adopted == 0 && r.Dangling == 0 && !r.IndexRebuilt
}

func (r SweepReport) String() string {
	if r.Clean() {
		return "clean"
	}
	return fmt.Sprintf("torn_temps=%d corrupt=%d adopted=%d dangling=%d index_rebuilt=%v",
		r.TornTemps, r.Corrupt, r.Adopted, r.Dangling, r.IndexRebuilt)
}

// Open opens (creating if needed) the store rooted at dir, running the
// crash-recovery sweep — under the cross-process lock — before
// returning: torn temp files are quarantined, every blob is
// re-verified against its full hash (corrupt blobs quarantined),
// verified orphans re-adopted, dangling index entries dropped, and the
// repaired index persisted. Multiple processes may hold the same
// directory open; their operations serialize on the store's advisory
// lock.
func Open(dir string) (*Store, SweepReport, error) {
	s := &Store{dir: dir, blob: map[ID]*entry{}, tags: map[string]ID{}}
	for _, d := range []string{dir, filepath.Join(dir, "blobs"), filepath.Join(dir, "quarantine")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, SweepReport{}, fmt.Errorf("cas: %w", err)
		}
	}
	lf, err := os.OpenFile(filepath.Join(dir, "lock"), os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, SweepReport{}, fmt.Errorf("cas: %w", err)
	}
	s.lockF = lf
	if err := s.lockFS(); err != nil {
		lf.Close()
		return nil, SweepReport{}, err
	}
	rep, err := s.sweep()
	s.unlockFS()
	if err != nil {
		lf.Close()
		return nil, rep, err
	}
	return s, rep, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// Close releases the store's lock-file handle. The store must not be
// used afterwards. Optional: the kernel reclaims the handle (and any
// held lock) when the process exits.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lockF == nil {
		return nil
	}
	err := s.lockF.Close()
	s.lockF = nil
	return err
}

// lockFS takes the cross-process advisory lock; unlockFS releases it.
// Within the process s.mu already serializes operations, so the flock
// only ever contends with sibling processes (or sibling Stores opened
// on the same directory).
func (s *Store) lockFS() error {
	if s.lockF == nil {
		return errors.New("cas: store is closed")
	}
	if err := flockEx(s.lockF.Fd()); err != nil {
		return fmt.Errorf("cas: locking store: %w", err)
	}
	return nil
}

func (s *Store) unlockFS() {
	if s.lockF != nil {
		_ = flockUn(s.lockF.Fd())
	}
}

// begin acquires the in-process mutex and the cross-process lock and
// refreshes the index from disk; the returned release func undoes
// both. Every public operation starts here, which is what makes a
// store directory shared between processes coherent: tags and blobs
// written by siblings are visible before this operation acts.
func (s *Store) begin() (release func(), err error) {
	s.mu.Lock()
	if err := s.lockFS(); err != nil {
		s.mu.Unlock()
		return nil, err
	}
	if err := s.reloadLocked(); err != nil {
		s.unlockFS()
		s.mu.Unlock()
		return nil, err
	}
	return func() { s.unlockFS(); s.mu.Unlock() }, nil
}

// reloadLocked refreshes the in-memory blob/tag view from the index
// file. Called with s.mu and the cross-process lock held, so the
// loaded view stays authoritative until release. A missing index file
// reads as empty; an unparseable one is an error (reopen the store to
// quarantine and rebuild it) rather than a silent rebuild mid-flight.
func (s *Store) reloadLocked() error {
	raw, err := os.ReadFile(filepath.Join(s.dir, "index"))
	if err != nil {
		if !os.IsNotExist(err) {
			return fmt.Errorf("cas: reading index: %w", err)
		}
		raw = nil
	}
	if bytes.Equal(raw, s.lastIdx) {
		return nil // unchanged since we last read or wrote it
	}
	if raw == nil {
		s.blob, s.tags = map[ID]*entry{}, map[string]ID{}
	} else {
		blobs, tags, perr := parseIndex(raw)
		if perr != nil {
			return fmt.Errorf("cas: index unreadable (reopen the store to quarantine and rebuild it): %w", perr)
		}
		s.blob, s.tags = blobs, tags
	}
	s.lastIdx = raw
	s.stats.Blobs, s.stats.Bytes = 0, 0
	for _, e := range s.blob {
		s.stats.Blobs++
		s.stats.Bytes += e.size
	}
	return nil
}

func (s *Store) blobPath(kind Kind, id ID) string {
	h := id.String()
	return filepath.Join(s.dir, "blobs", string(kind), h[:2], h)
}

// quarantine moves path into the quarantine directory under a
// reason-stamped name; collisions get a numeric suffix. Called with
// the store lock held (or during the single-threaded sweep).
func (s *Store) quarantine(path, reason string) {
	base := filepath.Base(path) + "." + reason
	dst := filepath.Join(s.dir, "quarantine", base)
	for i := 1; ; i++ {
		if _, err := os.Lstat(dst); os.IsNotExist(err) {
			break
		}
		dst = filepath.Join(s.dir, "quarantine", fmt.Sprintf("%s.%d", base, i))
	}
	if err := os.Rename(path, dst); err != nil {
		// A quarantine that cannot move the file must still get it out
		// of serving; removal is the fallback.
		_ = os.Remove(path)
	}
	s.stats.Quarantined++
}

// Put stores data under its content ID, deduplicating against an
// existing identical blob, and persists the index. The write is
// atomic: temp file in the destination directory, sync, rename, then
// a directory sync.
func (s *Store) Put(kind Kind, data []byte) (ID, error) {
	return s.PutTagged(kind, data)
}

// PutTagged stores data and, under the same lock, points each named
// tag at it — so a concurrent GC (in this process or a sibling) can
// never collect the blob between the put and the tag. If persisting
// the index fails, the blob file and all in-memory mutations are
// rolled back: a put that reports failure leaves no trace in the
// store.
func (s *Store) PutTagged(kind Kind, data []byte, tags ...string) (ID, error) {
	if !validKind(kind) {
		return ID{}, fmt.Errorf("cas: unknown kind %q", kind)
	}
	for _, t := range tags {
		if err := validateTag(t); err != nil {
			return ID{}, err
		}
	}
	id := Sum(data)
	release, err := s.begin()
	if err != nil {
		return ID{}, err
	}
	defer release()
	s.stats.Puts++
	added := false
	if e, ok := s.blob[id]; ok {
		if e.kind != kind {
			return ID{}, fmt.Errorf("cas: %s already stored as kind %q, not %q", id, e.kind, kind)
		}
		s.stats.PutDedups++
	} else {
		path := s.blobPath(kind, id)
		if err := writeFileAtomic(path, data); err != nil {
			return ID{}, err
		}
		s.blob[id] = &entry{kind: kind, size: int64(len(data))}
		s.stats.Blobs++
		s.stats.Bytes += int64(len(data))
		added = true
	}
	type prevTag struct {
		id  ID
		had bool
	}
	prev := make(map[string]prevTag, len(tags))
	for _, t := range tags {
		if _, seen := prev[t]; !seen {
			old, had := s.tags[t]
			prev[t] = prevTag{old, had}
		}
		s.tags[t] = id
	}
	if err := s.persistIndex(); err != nil {
		// Nothing new became durable: undo the in-memory view and the
		// just-written blob file so the reported outcome matches store
		// state.
		for t, pt := range prev {
			if pt.had {
				s.tags[t] = pt.id
			} else {
				delete(s.tags, t)
			}
		}
		if added {
			delete(s.blob, id)
			s.stats.Blobs--
			s.stats.Bytes -= int64(len(data))
			_ = os.Remove(s.blobPath(kind, id))
		}
		return ID{}, err
	}
	return id, nil
}

// Get returns the blob's bytes and kind after recomputing and checking
// its full SHA-256. A blob that fails verification is quarantined, its
// index entry dropped, and ErrCorrupt returned; an ID the index does
// not know returns ErrNotFound even if a file happens to exist on disk
// (the index is authoritative until the recovery sweep re-verifies).
// A transient read failure (out of descriptors, permissions, ...)
// returns an error without touching the index: the blob stays
// addressable and the caller may retry.
func (s *Store) Get(id ID) ([]byte, Kind, error) {
	release, err := s.begin()
	if err != nil {
		return nil, "", err
	}
	defer release()
	s.stats.Gets++
	e, ok := s.blob[id]
	if !ok {
		s.stats.GetMisses++
		return nil, "", fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	path := s.blobPath(e.kind, id)
	data, rerr := os.ReadFile(path)
	if rerr != nil {
		if !os.IsNotExist(rerr) {
			// The file may be intact — only this read failed. Dropping
			// the entry here would destroy the blob's tags (and with
			// them resume addressability) over a transient error.
			return nil, "", fmt.Errorf("cas: reading blob %s: %w", id, rerr)
		}
		// The file is truly gone underneath the index: drop the entry
		// so the miss is not repeated, surface as not-found.
		s.dropEntryLocked(id)
		_ = s.persistIndex()
		s.stats.GetMisses++
		return nil, "", fmt.Errorf("%w: %s (blob file missing)", ErrNotFound, id)
	}
	if Sum(data) != id {
		s.stats.CorruptGets++
		s.quarantine(path, "hash-mismatch")
		s.dropEntryLocked(id)
		_ = s.persistIndex()
		return nil, "", fmt.Errorf("%w: %s (%d bytes on disk)", ErrCorrupt, id, len(data))
	}
	return data, e.kind, nil
}

// dropEntryLocked removes id from the in-memory index together with
// every tag pointing at it. Called with the store lock held.
func (s *Store) dropEntryLocked(id ID) {
	if e, ok := s.blob[id]; ok {
		s.stats.Blobs--
		s.stats.Bytes -= e.size
		delete(s.blob, id)
	}
	for name, tid := range s.tags {
		if tid == id {
			delete(s.tags, name)
		}
	}
}

// Has reports whether the index knows id.
func (s *Store) Has(id ID) bool {
	release, err := s.begin()
	if err != nil {
		return false
	}
	defer release()
	_, ok := s.blob[id]
	return ok
}

// Stat returns a blob's kind, size and refcount.
func (s *Store) Stat(id ID) (kind Kind, size int64, refs int, err error) {
	release, err := s.begin()
	if err != nil {
		return "", 0, 0, err
	}
	defer release()
	e, ok := s.blob[id]
	if !ok {
		return "", 0, 0, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return e.kind, e.size, e.refs, nil
}

// validateTag bounds tag names to a single printable token so the
// line-oriented index stays parseable.
func validateTag(name string) error {
	if name == "" || len(name) > 512 {
		return fmt.Errorf("cas: invalid tag name %q", name)
	}
	if strings.ContainsAny(name, " \t\r\n") {
		return fmt.Errorf("cas: tag name %q contains whitespace", name)
	}
	return nil
}

// Tag points name at an existing blob and persists the index. Tags are
// GC roots: a tagged blob survives GC regardless of its refcount.
func (s *Store) Tag(name string, id ID) error {
	if err := validateTag(name); err != nil {
		return err
	}
	release, err := s.begin()
	if err != nil {
		return err
	}
	defer release()
	if _, ok := s.blob[id]; !ok {
		return fmt.Errorf("%w: %s (cannot tag)", ErrNotFound, id)
	}
	old, had := s.tags[name]
	s.tags[name] = id
	if err := s.persistIndex(); err != nil {
		if had {
			s.tags[name] = old
		} else {
			delete(s.tags, name)
		}
		return err
	}
	return nil
}

// Resolve returns the blob a tag points at — including tags written
// by sibling processes sharing the store directory, which is what
// lets a front-door process resume a run from a checkpoint a backend
// process tagged.
func (s *Store) Resolve(name string) (ID, bool) {
	release, err := s.begin()
	if err != nil {
		return ID{}, false
	}
	defer release()
	id, ok := s.tags[name]
	return id, ok
}

// Untag removes a tag; it reports whether the tag existed.
func (s *Store) Untag(name string) (bool, error) {
	release, err := s.begin()
	if err != nil {
		return false, err
	}
	defer release()
	id, ok := s.tags[name]
	if !ok {
		return false, nil
	}
	delete(s.tags, name)
	if err := s.persistIndex(); err != nil {
		s.tags[name] = id
		return false, err
	}
	return true, nil
}

// UntagPrefix removes every tag with the given prefix (e.g. all of a
// completed run's checkpoint tags) and returns how many were removed.
func (s *Store) UntagPrefix(prefix string) (int, error) {
	release, err := s.begin()
	if err != nil {
		return 0, err
	}
	defer release()
	removed := map[string]ID{}
	for name, id := range s.tags {
		if strings.HasPrefix(name, prefix) {
			removed[name] = id
			delete(s.tags, name)
		}
	}
	if len(removed) == 0 {
		return 0, nil
	}
	if err := s.persistIndex(); err != nil {
		for name, id := range removed {
			s.tags[name] = id
		}
		return 0, err
	}
	return len(removed), nil
}

// DropPrefix removes every tag with the given prefix and then the
// blobs those tags pointed to that nothing else roots: no other tag
// and no reference. Blobs the tags did not point to are left alone,
// even unrooted ones, so a completed run's cleanup cannot collect a
// blob someone else stored with a plain Put. It takes the store lock
// once and persists the index once, before any blob file is removed:
// if persisting fails nothing changes, and a file whose removal fails
// after that is an orphan the recovery sweep re-adopts.
func (s *Store) DropPrefix(prefix string) (untagged, removed int, err error) {
	release, err := s.begin()
	if err != nil {
		return 0, 0, err
	}
	defer release()
	dropped := map[string]ID{}
	for name, id := range s.tags {
		if strings.HasPrefix(name, prefix) {
			dropped[name] = id
			delete(s.tags, name)
		}
	}
	if len(dropped) == 0 {
		return 0, 0, nil
	}
	rooted := map[ID]bool{}
	for _, id := range s.tags {
		rooted[id] = true
	}
	gone := map[ID]*entry{}
	for _, id := range dropped {
		if e, ok := s.blob[id]; ok && e.refs == 0 && !rooted[id] {
			gone[id] = e
			delete(s.blob, id)
		}
	}
	if err := s.persistIndex(); err != nil {
		for name, id := range dropped {
			s.tags[name] = id
		}
		for id, e := range gone {
			s.blob[id] = e
		}
		return 0, 0, err
	}
	for id, e := range gone {
		if rmErr := os.Remove(s.blobPath(e.kind, id)); rmErr != nil && !os.IsNotExist(rmErr) && err == nil {
			err = fmt.Errorf("cas: drop: %w", rmErr)
		}
		s.stats.GCRemoved++
		s.stats.Blobs--
		s.stats.Bytes -= e.size
	}
	return len(dropped), len(gone), err
}

// Tags returns the tag names with the given prefix, sorted.
func (s *Store) Tags(prefix string) []string {
	release, err := s.begin()
	if err != nil {
		return nil
	}
	defer release()
	var out []string
	for name := range s.tags {
		if strings.HasPrefix(name, prefix) {
			out = append(out, name)
		}
	}
	sort.Strings(out)
	return out
}

// AddRef pins a blob against GC; Release unpins it.
func (s *Store) AddRef(id ID) error {
	release, err := s.begin()
	if err != nil {
		return err
	}
	defer release()
	e, ok := s.blob[id]
	if !ok {
		return fmt.Errorf("%w: %s (cannot ref)", ErrNotFound, id)
	}
	e.refs++
	if err := s.persistIndex(); err != nil {
		e.refs--
		return err
	}
	return nil
}

// Release drops one reference (floor zero).
func (s *Store) Release(id ID) error {
	release, err := s.begin()
	if err != nil {
		return err
	}
	defer release()
	e, ok := s.blob[id]
	if !ok {
		return fmt.Errorf("%w: %s (cannot release)", ErrNotFound, id)
	}
	if e.refs > 0 {
		e.refs--
		if err := s.persistIndex(); err != nil {
			e.refs++
			return err
		}
	}
	return nil
}

// GC removes every blob with zero references and no tag pointing at
// it, returning how many blobs and bytes were reclaimed. The root set
// is re-read from disk under the store lock first, so checkpoints and
// traces tagged by sibling processes are never collected out from
// under them.
func (s *Store) GC() (removed int, bytes int64, err error) {
	release, berr := s.begin()
	if berr != nil {
		return 0, 0, berr
	}
	defer release()
	rooted := map[ID]bool{}
	for _, id := range s.tags {
		rooted[id] = true
	}
	for id, e := range s.blob {
		if e.refs > 0 || rooted[id] {
			continue
		}
		if rmErr := os.Remove(s.blobPath(e.kind, id)); rmErr != nil && !os.IsNotExist(rmErr) {
			if err == nil {
				err = fmt.Errorf("cas: gc: %w", rmErr)
			}
			continue
		}
		removed++
		bytes += e.size
		s.stats.GCRemoved++
		s.stats.Blobs--
		s.stats.Bytes -= e.size
		delete(s.blob, id)
	}
	if removed > 0 {
		if perr := s.persistIndex(); perr != nil && err == nil {
			err = perr
		}
	}
	return removed, bytes, err
}

// Stats snapshots the store counters. Blobs/Bytes/Tags reflect the
// index as of the last operation; the remaining counters are local to
// this process.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := s.stats
	st.Tags = len(s.tags)
	return st
}

// writeFileAtomic lands data under path with the temp + sync + rename
// idiom shared with checkpoint.WriteFileVia, then syncs the parent
// directory so the rename itself survives host power loss: a crash at
// any point leaves either the previous state or a torn *.tmp* file
// for the recovery sweep — never a half-written blob under the final
// name.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	tmpName := tmp.Name()
	fail := func(err error) error {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("cas: %w", err)
	}
	if _, err := tmp.Write(data); err != nil {
		return fail(err)
	}
	if err := tmp.Sync(); err != nil {
		return fail(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("cas: %w", err)
	}
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("cas: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("cas: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a rename that just landed in it is
// durable against power loss, not only process death (the temp file's
// own fsync covers the bytes; the new directory entry needs its own).
// Filesystems that cannot sync a directory handle are best-effort.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	if err := d.Sync(); err != nil && !dirSyncBenign(err) {
		return err
	}
	return nil
}

// persistIndex writes the index atomically and records the written
// bytes so the next reload can skip an unchanged file. Called with
// the store lock held.
func (s *Store) persistIndex() error {
	enc := encodeIndex(s.blob, s.tags)
	if err := writeFileAtomic(filepath.Join(s.dir, "index"), enc); err != nil {
		return err
	}
	s.lastIdx = enc
	return nil
}

// sweep is the crash-recovery pass Open runs under the cross-process
// lock: see SweepReport. Holding the lock for the whole sweep means a
// sibling process's in-flight write (whose temp file only exists
// while that sibling holds the lock) can never be mistaken for a torn
// temp and quarantined.
func (s *Store) sweep() (SweepReport, error) {
	var rep SweepReport

	// 1. Torn temp files anywhere under the store (except quarantine
	// itself) are interrupted writes: quarantine them.
	qdir := filepath.Join(s.dir, "quarantine")
	_ = filepath.WalkDir(s.dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path == qdir {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.Contains(d.Name(), ".tmp") {
			s.quarantine(path, "torn-temp")
			rep.TornTemps++
		}
		return nil
	})

	// 2. Load the index; a corrupt index is quarantined and rebuilt
	// from the blobs themselves (content addressing makes the blobs
	// self-describing, so only refcounts and tags are lost).
	idxPath := filepath.Join(s.dir, "index")
	declared := map[ID]*entry{}
	if raw, err := os.ReadFile(idxPath); err == nil {
		blobs, tags, perr := parseIndex(raw)
		if perr != nil {
			s.quarantine(idxPath, "corrupt-index")
			rep.IndexRebuilt = true
		} else {
			declared = blobs
			s.tags = tags
		}
	} else if !os.IsNotExist(err) {
		return rep, fmt.Errorf("cas: reading index: %w", err)
	}

	// 3. Verify every blob on disk against its full hash. Corrupt or
	// misnamed blobs are quarantined; verified blobs not in the index
	// are adopted with zero refs. An ID already verified under an
	// earlier kind directory is a duplicate — quarantining the extra
	// copy (identical bytes, by the hash check) keeps the single map
	// entry consistent with the stats and the on-disk tree.
	onDisk := map[ID]bool{}
	for _, kind := range Kinds() {
		kdir := filepath.Join(s.dir, "blobs", string(kind))
		_ = filepath.WalkDir(kdir, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return nil
			}
			id, perr := ParseID(d.Name())
			if perr != nil {
				s.quarantine(path, "bad-name")
				rep.Corrupt++
				return nil
			}
			if onDisk[id] {
				s.quarantine(path, "duplicate-kind")
				rep.Corrupt++
				return nil
			}
			data, rerr := os.ReadFile(path)
			if rerr != nil || Sum(data) != id {
				s.quarantine(path, "hash-mismatch")
				rep.Corrupt++
				return nil
			}
			onDisk[id] = true
			e, known := declared[id]
			if !known {
				e = &entry{kind: kind, size: int64(len(data))}
				rep.Adopted++
			} else {
				e.kind = kind // the path is ground truth for the kind
				e.size = int64(len(data))
			}
			s.blob[id] = e
			s.stats.Blobs++
			s.stats.Bytes += e.size
			return nil
		})
	}

	// 4. Index entries with no surviving blob are dangling: drop them
	// and every tag that pointed at them.
	for id := range declared {
		if !onDisk[id] {
			rep.Dangling++
		}
	}
	for name, id := range s.tags {
		if _, ok := s.blob[id]; !ok {
			delete(s.tags, name)
		}
	}

	return rep, s.persistIndex()
}
