package core

import (
	"slices"

	"resemble/internal/flatmap"
	"resemble/internal/mem"
)

// RewardTracker implements the paper's reward feedback rule (Section
// IV-D2): every prefetching transition enters a window of the last W
// prefetches; when a demand access matches a windowed prefetch address,
// that transition earns reward +1; a prefetch that leaves the window
// unmatched earns −1. NP transitions never enter the tracker (their
// reward is 0 immediately).
//
// Records sit in a head-indexed queue in seq order. A hit marks its
// record resolved in place (it is dropped when it reaches the head), and
// a per-line count of unresolved records lets Resolve skip the queue
// scan on the common access that matches no outstanding prefetch.
type RewardTracker struct {
	window int
	recs   flatmap.Queue[pfRecord]
	live   *flatmap.Map // line -> unresolved records for it
	n      int          // unresolved records
}

type pfRecord struct {
	seq      int // transition sequence number (access index)
	line     mem.Line
	resolved bool // matched by a demand access
}

// NewRewardTracker builds a tracker with the given window W.
func NewRewardTracker(window int) *RewardTracker {
	if window <= 0 {
		window = 1
	}
	return &RewardTracker{window: window, live: flatmap.New(64)}
}

// Add registers a prefetching transition.
func (t *RewardTracker) Add(seq int, line mem.Line) {
	t.recs.Push(pfRecord{seq: seq, line: line})
	n, _ := t.live.Get(line)
	t.live.Set(line, n+1)
	t.n++
}

// Resolve processes a demand access to line at the current sequence
// number. It appends to hits the sequence numbers of windowed
// prefetches matching line (each earns +1 and leaves the window), and
// to expired the sequence numbers that aged out unmatched (each earns
// −1), both in seq order. The returned slices alias the provided
// backing arrays.
func (t *RewardTracker) Resolve(curSeq int, line mem.Line, hits, expired []int) (h, e []int) {
	hits = hits[:0]
	expired = expired[:0]
	// Expire from the front: records are in seq order.
	for t.recs.Len() > 0 {
		r := t.recs.Live()[0]
		if r.seq+t.window > curSeq {
			break
		}
		t.recs.Pop()
		if r.resolved {
			continue
		}
		expired = append(expired, r.seq)
		t.n--
		if n, _ := t.live.Get(r.line); n > 1 {
			t.live.Set(r.line, n-1)
		} else {
			t.live.Delete(r.line)
		}
	}
	// Match the remainder.
	want, ok := t.live.Get(line)
	if !ok {
		return hits, expired
	}
	// Scan newest first (a prefetch is usually used soon after it is
	// issued) and stop at the last outstanding match; then restore seq
	// order.
	recs := t.recs.Live()
	for i := len(recs) - 1; uint64(len(hits)) < want; i-- {
		if r := &recs[i]; r.line == line && !r.resolved {
			r.resolved = true
			hits = append(hits, r.seq)
		}
	}
	slices.Reverse(hits)
	t.n -= len(hits)
	t.live.Delete(line)
	return hits, expired
}

// Pending returns the number of unresolved prefetches (for tests).
func (t *RewardTracker) Pending() int { return t.n }

// Reset discards all pending prefetches.
func (t *RewardTracker) Reset() {
	t.recs.Reset(0)
	t.live.Clear()
	t.n = 0
}
