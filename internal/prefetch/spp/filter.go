package spp

import (
	"resemble/internal/flatmap"
	"resemble/internal/mem"
)

// filter is SPP's in-flight prefetch filter: the last bound lines the
// walk issued, evicted in insertion order. The lines are kept twice:
// in a queue, oldest first, which is the eviction order and the
// checkpointed form; and as one 64-bit bitmap per page (bit i set when
// line i of the page is filtered). A lookahead walk never leaves its
// trigger's page, so it reads that page's bitmap once and tests one
// bit per step instead of probing a hash table per line.
type filter struct {
	order flatmap.Queue[mem.Line]
	pages *flatmap.Map // page -> bitmap of its filtered lines; no zero bitmaps
	bound int
}

func newFilter(bound int) *filter {
	f := &filter{pages: flatmap.New(max(bound, 1)), bound: max(bound, 1)}
	f.order.Reset(f.bound)
	return f
}

// reset empties the filter in place.
func (f *filter) reset() {
	f.pages.Clear()
	f.order.Reset(f.bound)
}

// lineBit is line's bit in its page's bitmap.
func lineBit(line mem.Line) uint64 { return 1 << (line % mem.LinesPerPage) }

// bits returns the bitmap of page's filtered lines.
func (f *filter) bits(page mem.Page) uint64 {
	b, _ := f.pages.Get(page)
	return b
}

// add inserts line, which must not be filtered yet; cur is the bitmap
// of line's page before the insert. When the filter is full the oldest
// line is evicted first, and it may belong to the same page, so add
// returns the page's bitmap as it stands after the insert.
func (f *filter) add(line mem.Line, cur uint64) uint64 {
	page := line / mem.LinesPerPage
	if f.order.Len() == f.bound {
		old := f.order.Pop()
		oldPage := old / mem.LinesPerPage
		if oldPage == page {
			cur &^= lineBit(old)
		} else if b := f.bits(oldPage) &^ lineBit(old); b == 0 {
			f.pages.Delete(oldPage)
		} else {
			f.pages.Set(oldPage, b)
		}
	}
	cur |= lineBit(line)
	f.pages.Set(page, cur)
	f.order.Push(line)
	return cur
}

// insert adds line unless it is already filtered; a duplicate keeps
// its place in the eviction order.
func (f *filter) insert(line mem.Line) {
	if cur := f.bits(line / mem.LinesPerPage); cur&lineBit(line) == 0 {
		f.add(line, cur)
	}
}
