package flatmap

// Queue is a head-indexed FIFO: Pop advances a cursor instead of
// reslicing, and Push compacts the dead prefix only once it outgrows
// the live region, so steady-state push/pop is amortized O(1) and
// stops allocating once the buffer has reached its working size. The
// zero value is an empty queue.
type Queue[T any] struct {
	buf  []T
	head int
}

// Push appends v at the tail.
func (q *Queue[T]) Push(v T) {
	if q.head > 0 && q.head >= len(q.buf)-q.head {
		n := copy(q.buf, q.buf[q.head:])
		q.buf = q.buf[:n]
		q.head = 0
	}
	q.buf = append(q.buf, v)
}

// Pop removes and returns the oldest element; the queue must not be
// empty.
func (q *Queue[T]) Pop() T {
	v := q.buf[q.head]
	q.head++
	return v
}

// PushBounded appends v and then evicts the oldest elements until at
// most limit remain (limit <= 0 keeps everything), returning how many
// it evicted. Evicted slots are zeroed so the queue stops referencing
// them. This is the one retention rule of every bounded debug buffer:
// keep the newest limit records.
func (q *Queue[T]) PushBounded(v T, limit int) (evicted int) {
	q.Push(v)
	var zero T
	for limit > 0 && q.Len() > limit {
		q.buf[q.head] = zero
		q.head++
		evicted++
	}
	return evicted
}

// Len returns the number of queued elements.
func (q *Queue[T]) Len() int { return len(q.buf) - q.head }

// Live returns the queued elements oldest first. The slice aliases the
// queue: elements may be modified in place, but it is invalidated by
// the next Push.
func (q *Queue[T]) Live() []T { return q.buf[q.head:] }

// Reset empties the queue, keeping a buffer of at least capacity
// elements so a reused or freshly sized queue does not regrow through
// the append doubling ladder.
func (q *Queue[T]) Reset(capacity int) {
	if cap(q.buf) < capacity {
		q.buf = make([]T, 0, capacity)
	}
	q.buf = q.buf[:0]
	q.head = 0
}

// FIFO is a Map holding at most a fixed number of keys, evicting in
// insertion order: a new key enters at the tail of the eviction order,
// and inserting one past the bound first evicts the oldest key.
// Updating a live key changes its value but not its position. This is
// the replacement policy of the prefetchers' bounded metadata tables
// (ISB's address-mapping caches, Domino's indexes).
type FIFO struct {
	m     Map
	order Queue[uint64]
	bound int
	hint  int
}

// NewFIFO builds a table holding at most bound keys, pre-sized for
// min(hint, bound) of them; it grows on demand up to the bound.
func NewFIFO(bound, hint int) *FIFO {
	if bound < 1 {
		bound = 1
	}
	f := &FIFO{bound: bound, hint: min(hint, bound)}
	f.Reset()
	return f
}

// Reset removes every key. A table that never grew past its initial
// size is cleared in place; a grown one returns to the initial size.
func (f *FIFO) Reset() {
	if slots := slotsFor(f.hint); len(f.m.slots) == slots {
		f.m.Clear()
	} else {
		f.m.init(slots)
	}
	f.order.Reset(f.hint)
}

// Len returns the number of live keys.
func (f *FIFO) Len() int { return f.m.n }

// Get returns the value stored for k.
func (f *FIFO) Get(k uint64) (uint64, bool) { return f.m.Get(k) }

// Put stores v under k and reports whether k was already present
// (returning its previous value). A new key is appended to the
// eviction order, evicting the oldest key when the table is full; the
// eviction happens before the insert, so the table never holds more
// than bound keys and never grows past the size that bound needs.
func (f *FIFO) Put(k, v uint64) (prev uint64, existed bool) {
	if f.m.n == f.bound {
		if i, ok := f.m.find(k); ok {
			prev, f.m.slots[i].val = f.m.slots[i].val, v
			return prev, true
		}
		f.m.Delete(f.order.Pop())
	}
	prev, existed = f.m.Swap(k, v)
	if !existed {
		f.order.Push(k)
	}
	return prev, existed
}

// Range calls fn for each live key, oldest first, until fn returns
// false. The table must not be mutated during the walk. Checkpoints
// serialize in this order, so their bytes depend only on the table's
// logical contents and insertion history.
func (f *FIFO) Range(fn func(k, v uint64) bool) {
	for _, k := range f.order.Live() {
		v, _ := f.m.Get(k)
		if !fn(k, v) {
			return
		}
	}
}
