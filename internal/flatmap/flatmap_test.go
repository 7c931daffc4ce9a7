package flatmap

import (
	"math/rand"
	"testing"
)

func TestBasicOps(t *testing.T) {
	m := New(4)
	if m.Len() != 0 {
		t.Fatalf("Len of empty map = %d", m.Len())
	}
	if _, ok := m.Get(7); ok {
		t.Fatal("Get on empty map reported presence")
	}
	m.Set(7, 70)
	m.Set(8, 80)
	m.Set(7, 71) // overwrite
	if m.Len() != 2 {
		t.Fatalf("Len = %d, want 2", m.Len())
	}
	if v, ok := m.Get(7); !ok || v != 71 {
		t.Fatalf("Get(7) = %d,%v, want 71,true", v, ok)
	}
	if v, ok := m.Get(8); !ok || v != 80 {
		t.Fatalf("Get(8) = %d,%v, want 80,true", v, ok)
	}
	if !m.Delete(7) {
		t.Fatal("Delete(7) = false for present key")
	}
	if m.Delete(7) {
		t.Fatal("Delete(7) = true for absent key")
	}
	if m.Contains(7) || !m.Contains(8) {
		t.Fatal("Contains wrong after delete")
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d after delete, want 1", m.Len())
	}
}

func TestZeroKeyAndValue(t *testing.T) {
	m := New(2)
	m.Set(0, 0)
	if v, ok := m.Get(0); !ok || v != 0 {
		t.Fatalf("Get(0) = %d,%v, want 0,true", v, ok)
	}
	if !m.Delete(0) {
		t.Fatal("Delete(0) failed")
	}
}

func TestReservedKeyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Set(^uint64(0)) did not panic")
		}
	}()
	New(2).Set(^uint64(0), 1)
}

func TestSwap(t *testing.T) {
	m := New(2)
	if _, existed := m.Swap(9, 90); existed {
		t.Fatal("Swap on absent key reported existed")
	}
	if prev, existed := m.Swap(9, 91); !existed || prev != 90 {
		t.Fatalf("Swap on present key = %d,%v, want 90,true", prev, existed)
	}
	if v, _ := m.Get(9); v != 91 {
		t.Fatalf("value after Swap = %d, want 91", v)
	}
	if m.Len() != 1 {
		t.Fatalf("Len = %d, want 1", m.Len())
	}
	// Swap must grow like Set.
	g := New(0)
	for i := uint64(0); i < 5000; i++ {
		g.Swap(i, i)
	}
	for i := uint64(0); i < 5000; i++ {
		if v, ok := g.Get(i); !ok || v != i {
			t.Fatalf("Get(%d) after Swap growth = %d,%v", i, v, ok)
		}
	}
}

func TestGrowth(t *testing.T) {
	m := New(0)
	const n = 10000
	for i := uint64(0); i < n; i++ {
		m.Set(i, i*3)
	}
	if m.Len() != n {
		t.Fatalf("Len = %d, want %d", m.Len(), n)
	}
	for i := uint64(0); i < n; i++ {
		if v, ok := m.Get(i); !ok || v != i*3 {
			t.Fatalf("Get(%d) = %d,%v after growth", i, v, ok)
		}
	}
}

func TestClearKeepsCapacity(t *testing.T) {
	m := New(0)
	for i := uint64(0); i < 1000; i++ {
		m.Set(i, i)
	}
	slots := len(m.slots)
	m.Clear()
	if m.Len() != 0 {
		t.Fatalf("Len = %d after Clear", m.Len())
	}
	if len(m.slots) != slots {
		t.Fatalf("Clear changed capacity: %d -> %d", slots, len(m.slots))
	}
	for i := uint64(0); i < 1000; i++ {
		if m.Contains(i) {
			t.Fatalf("key %d survived Clear", i)
		}
	}
	m.Set(5, 50)
	if v, ok := m.Get(5); !ok || v != 50 {
		t.Fatal("map unusable after Clear")
	}
}

func TestRangeVisitsAll(t *testing.T) {
	m := New(8)
	want := map[uint64]uint64{1: 10, 2: 20, 3: 30}
	for k, v := range want {
		m.Set(k, v)
	}
	got := map[uint64]uint64{}
	m.Range(func(k, v uint64) bool {
		got[k] = v
		return true
	})
	if len(got) != len(want) {
		t.Fatalf("Range visited %d entries, want %d", len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("Range saw %d=%d, want %d", k, got[k], v)
		}
	}
	// Early stop.
	calls := 0
	m.Range(func(k, v uint64) bool {
		calls++
		return false
	})
	if calls != 1 {
		t.Fatalf("Range with false continued: %d calls", calls)
	}
}

// TestRandomizedAgainstBuiltin drives the flat map and a builtin map
// through the same random operation stream — including heavy
// delete/insert churn, which is what exercises backward-shift deletion.
func TestRandomizedAgainstBuiltin(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	m := New(4)
	ref := map[uint64]uint64{}
	// Small key space forces constant collisions and re-use.
	const keySpace = 257
	for op := 0; op < 200000; op++ {
		k := uint64(rng.Intn(keySpace))
		switch rng.Intn(4) {
		case 0, 1: // set
			v := rng.Uint64()
			m.Set(k, v)
			ref[k] = v
		case 2: // delete
			_, want := ref[k]
			if got := m.Delete(k); got != want {
				t.Fatalf("op %d: Delete(%d) = %v, want %v", op, k, got, want)
			}
			delete(ref, k)
		case 3: // get
			wantV, want := ref[k]
			gotV, got := m.Get(k)
			if got != want || (got && gotV != wantV) {
				t.Fatalf("op %d: Get(%d) = %d,%v, want %d,%v", op, k, gotV, got, wantV, want)
			}
		}
		if m.Len() != len(ref) {
			t.Fatalf("op %d: Len = %d, want %d", op, m.Len(), len(ref))
		}
	}
	// Final full cross-check both ways.
	for k, v := range ref {
		if got, ok := m.Get(k); !ok || got != v {
			t.Fatalf("final: Get(%d) = %d,%v, want %d,true", k, got, ok, v)
		}
	}
	seen := 0
	m.Range(func(k, v uint64) bool {
		if ref[k] != v {
			t.Fatalf("final Range: %d=%d, want %d", k, v, ref[k])
		}
		seen++
		return true
	})
	if seen != len(ref) {
		t.Fatalf("final Range visited %d, want %d", seen, len(ref))
	}
}

// TestDeterministicOrder checks that two maps built by the same
// operation history iterate identically — the property sim checkpoints
// rely on.
func TestDeterministicOrder(t *testing.T) {
	build := func() []uint64 {
		m := New(4)
		rng := rand.New(rand.NewSource(7))
		for op := 0; op < 5000; op++ {
			k := uint64(rng.Intn(100))
			if rng.Intn(3) == 0 {
				m.Delete(k)
			} else {
				m.Set(k, k)
			}
		}
		var order []uint64
		m.Range(func(k, v uint64) bool {
			order = append(order, k)
			return true
		})
		return order
	}
	a, b := build(), build()
	if len(a) != len(b) {
		t.Fatalf("orders differ in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("orders diverge at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestSteadyStateNoAlloc(t *testing.T) {
	m := New(1024)
	for i := uint64(0); i < 1024; i++ {
		m.Set(i, i)
	}
	allocs := testing.AllocsPerRun(100, func() {
		m.Delete(3)
		m.Set(3, 9)
		m.Get(500)
	})
	if allocs != 0 {
		t.Fatalf("steady-state ops allocated %.1f/op, want 0", allocs)
	}
}

// TestGetAbsentIsZero: Get reports 0 for an absent key even where a
// deleted or shifted entry used to live, so counters can be read with
// Get and bumped with Set.
func TestGetAbsentIsZero(t *testing.T) {
	m := New(4)
	for k := uint64(0); k < 64; k++ {
		m.Set(k, k+100)
	}
	for k := uint64(0); k < 64; k += 2 {
		m.Delete(k)
	}
	for k := uint64(0); k < 64; k++ {
		v, ok := m.Get(k)
		if want := k%2 == 1; ok != want || (!ok && v != 0) || (ok && v != k+100) {
			t.Fatalf("Get(%d) = %d,%v", k, v, ok)
		}
	}
	if v, ok := m.Get(Reserved); ok || v != 0 {
		t.Fatalf("Get(Reserved) = %d,%v, want 0,false", v, ok)
	}
}
