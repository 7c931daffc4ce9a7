package flatmap

import (
	"math/rand"
	"testing"
)

// fifoKeys returns a FIFO's live keys and values in iteration order.
func fifoKeys(f *FIFO) (keys, vals []uint64) {
	f.Range(func(k, v uint64) bool {
		keys = append(keys, k)
		vals = append(vals, v)
		return true
	})
	return keys, vals
}

func equal(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFIFOEvictsOldestFirst(t *testing.T) {
	f := NewFIFO(3, 3)
	for k := uint64(1); k <= 5; k++ {
		if _, existed := f.Put(k, k*10); existed {
			t.Fatalf("Put(%d) reported an existing key", k)
		}
	}
	if f.Len() != 3 {
		t.Fatalf("Len = %d, want 3", f.Len())
	}
	for k := uint64(1); k <= 2; k++ {
		if _, ok := f.Get(k); ok {
			t.Errorf("key %d survived eviction", k)
		}
	}
	keys, vals := fifoKeys(f)
	if !equal(keys, []uint64{3, 4, 5}) || !equal(vals, []uint64{30, 40, 50}) {
		t.Errorf("live region = %v/%v, want [3 4 5]/[30 40 50]", keys, vals)
	}
}

// TestFIFOUpdateKeepsPosition: re-inserting a live key changes its
// value but not its place in the eviction order, so it is still
// evicted first (the Domino/ISB table semantics).
func TestFIFOUpdateKeepsPosition(t *testing.T) {
	f := NewFIFO(3, 3)
	f.Put(1, 10)
	f.Put(2, 20)
	f.Put(3, 30)
	if prev, existed := f.Put(1, 11); !existed || prev != 10 {
		t.Fatalf("Put(1) on live key = %d,%v, want 10,true", prev, existed)
	}
	if v, _ := f.Get(1); v != 11 {
		t.Fatalf("Get(1) = %d after update, want 11", v)
	}
	f.Put(4, 40) // evicts 1, the oldest insertion, despite its update
	if _, ok := f.Get(1); ok {
		t.Error("updated key was not evicted first")
	}
	keys, _ := fifoKeys(f)
	if !equal(keys, []uint64{2, 3, 4}) {
		t.Errorf("live region = %v, want [2 3 4]", keys)
	}
	// A full table updates in place too.
	if prev, existed := f.Put(3, 33); !existed || prev != 30 {
		t.Fatalf("Put(3) on full table = %d,%v, want 30,true", prev, existed)
	}
	if keys, vals := fifoKeys(f); !equal(keys, []uint64{2, 3, 4}) || !equal(vals, []uint64{20, 33, 40}) {
		t.Errorf("after full-table update: %v/%v", keys, vals)
	}
}

// TestFIFORangeStopsEarly: Range walks oldest first and honours a
// false return.
func TestFIFORangeStopsEarly(t *testing.T) {
	f := NewFIFO(8, 8)
	for k := uint64(10); k < 15; k++ {
		f.Put(k, k)
	}
	var seen []uint64
	f.Range(func(k, _ uint64) bool {
		seen = append(seen, k)
		return len(seen) < 2
	})
	if !equal(seen, []uint64{10, 11}) {
		t.Errorf("Range visited %v, want [10 11]", seen)
	}
}

// TestQueueCompactionBoundary pins when Push compacts the dead prefix:
// only once the head has advanced at least as far as the live region
// is long, and the live contents survive the move.
func TestQueueCompactionBoundary(t *testing.T) {
	var q Queue[uint64]
	q.Reset(8)
	for v := uint64(0); v < 8; v++ {
		q.Push(v)
	}
	for i := 0; i < 3; i++ {
		q.Pop()
	}
	// head 3, live 5: not yet compacted.
	q.Push(8)
	if q.head != 3 {
		t.Fatalf("compacted early: head = %d", q.head)
	}
	q.Pop()
	// head 4, live 5: still short of the boundary.
	q.Push(9)
	if q.head != 4 {
		t.Fatalf("compacted early: head = %d", q.head)
	}
	q.Pop()
	q.Pop()
	// head 6, live 4: the next push compacts before appending.
	q.Push(10)
	if q.head != 0 {
		t.Fatalf("did not compact: head = %d", q.head)
	}
	if got := q.Live(); !equal(got, []uint64{6, 7, 8, 9, 10}) {
		t.Errorf("live after compaction = %v, want [6 7 8 9 10]", got)
	}
}

// TestFIFOSteadyStateNoAlloc: once full, churn through a FIFO table
// neither allocates nor grows it.
func TestFIFOSteadyStateNoAlloc(t *testing.T) {
	f := NewFIFO(64, 64)
	k := uint64(0)
	for ; k < 200; k++ {
		f.Put(k, k)
	}
	slots := len(f.m.slots)
	allocs := testing.AllocsPerRun(1000, func() {
		f.Put(k, k)
		f.Get(k - 10)
		k++
	})
	if allocs != 0 {
		t.Errorf("steady-state Put allocates %.2f/op", allocs)
	}
	if len(f.m.slots) != slots {
		t.Errorf("table grew from %d to %d slots at its bound", slots, len(f.m.slots))
	}
}

// TestFIFOMatchesReference drives random Put traffic against a simple
// slice-backed model of the same policy.
func TestFIFOMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, bound := range []int{1, 5, 64} {
		f := NewFIFO(bound, 2) // small hint: exercises growth up to the bound
		var order []uint64
		vals := map[uint64]uint64{}
		for op := 0; op < 5000; op++ {
			k := uint64(rng.Intn(3 * bound))
			v := rng.Uint64() >> 1
			prev, existed := f.Put(k, v)
			want, live := vals[k]
			if existed != live || (live && prev != want) {
				t.Fatalf("bound %d op %d: Put(%d) = %d,%v, want %d,%v", bound, op, k, prev, existed, want, live)
			}
			if !live {
				if len(order) == bound {
					delete(vals, order[0])
					order = order[1:]
				}
				order = append(order, k)
			}
			vals[k] = v
			if f.Len() != len(order) {
				t.Fatalf("bound %d op %d: Len %d, want %d", bound, op, f.Len(), len(order))
			}
		}
		keys, got := fifoKeys(f)
		if !equal(keys, order) {
			t.Fatalf("bound %d: live order %v, want %v", bound, keys, order)
		}
		for i, k := range keys {
			if got[i] != vals[k] {
				t.Fatalf("bound %d: key %d = %d, want %d", bound, k, got[i], vals[k])
			}
		}
		f.Reset()
		if f.Len() != 0 || len(f.order.Live()) != 0 {
			t.Fatalf("bound %d: Reset left %d keys", bound, f.Len())
		}
	}
}

func TestQueuePushBounded(t *testing.T) {
	var q Queue[*int]
	vals := make([]int, 7)
	dropped := 0
	for i := range vals {
		vals[i] = i
		dropped += q.PushBounded(&vals[i], 4)
	}
	if dropped != 3 || q.Len() != 4 {
		t.Fatalf("dropped %d, len %d; want 3 and 4", dropped, q.Len())
	}
	for i, p := range q.Live() {
		if *p != 3+i {
			t.Errorf("live[%d] = %d, want %d", i, *p, 3+i)
		}
	}
	// Evicted slots no longer reference their records.
	for i, p := range q.buf[:q.head] {
		if p != nil {
			t.Errorf("evicted slot %d still holds %d", i, *p)
		}
	}
	// A limit <= 0 keeps everything.
	if n := q.PushBounded(&vals[0], 0); n != 0 || q.Len() != 5 {
		t.Errorf("unbounded push dropped %d, len %d", n, q.Len())
	}
}
