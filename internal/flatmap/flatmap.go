// Package flatmap provides a fixed-purpose open-addressed hash table
// from uint64 keys to uint64 values, used on simulator hot paths in
// place of the runtime map. Linear probing with backward-shift
// deletion keeps probe chains short under the constant insert/delete
// churn of FIFO-bounded tables, and specializing to uint64 removes the
// runtime's hashing and bucket-group indirection. Iteration order is a
// pure function of the operation history (no per-process seed), so
// state serialized from a Map is deterministic across runs.
//
// Slots hold key+1, so a zeroed slot is empty: fresh and cleared
// tables need no fill pass. The key ^uint64(0), whose successor wraps
// to zero, is therefore reserved. Every key the simulator stores
// (cache-line addresses, PCs, structural addresses) is far below it;
// Set panics on it to keep the invariant visible.
package flatmap

import "math/bits"

// Reserved is the one key a Map cannot hold. Decoders of untrusted
// snapshots check for it and return an error instead of letting Set
// panic.
const Reserved = ^uint64(0)

// fibMul is the 64-bit Fibonacci hashing constant (2^64 / phi).
const fibMul = 0x9E3779B97F4A7C15

// Map is an open-addressed uint64 -> uint64 hash table. The zero value
// is not ready for use; call New.
type Map struct {
	slots []slot
	mask  uint64
	shift uint
	n     int
	limit int // grow when n would exceed this (3/4 of the slots)
}

// slot keeps a key next to its value, so a hit costs one cache line.
// An empty slot is all zero.
type slot struct {
	key uint64 // key+1; 0 marks an empty slot
	val uint64
}

// New builds a map pre-sized to hold capacity entries without growing.
func New(capacity int) *Map {
	m := &Map{}
	m.init(slotsFor(capacity))
	return m
}

// slotsFor returns the power-of-two slot count for a requested
// capacity, keeping the load factor at or below 3/4. With 16-byte
// slots and short probes, 3/4 beats 1/2 in both time and memory: the
// tables are half the size, grow half as often, and a run's table
// growth leaves half the garbage.
func slotsFor(capacity int) int {
	slots := 8
	for 3*slots < 4*capacity {
		slots <<= 1
	}
	return slots
}

func (m *Map) init(slots int) {
	m.slots = make([]slot, slots)
	m.mask = uint64(slots - 1)
	m.shift = uint(64 - bits.TrailingZeros(uint(slots)))
	m.n = 0
	m.limit = slots / 4 * 3
}

// home is the preferred slot of a key: multiply-shift hashing keeps the
// top bits, which mix best under the Fibonacci constant.
func (m *Map) home(k uint64) uint64 {
	return (k * fibMul) >> m.shift
}

// Len returns the number of entries.
func (m *Map) Len() int { return m.n }

// find probes for k: it returns k's slot, or the empty slot that ends
// k's probe chain (where an insert would go) and false.
func (m *Map) find(k uint64) (uint64, bool) {
	s := k + 1
	i := m.home(k)
	for {
		switch m.slots[i].key {
		case 0:
			return i, false
		case s:
			return i, true
		}
		i = (i + 1) & m.mask
	}
}

// Get returns the value stored for k (0 when absent: the empty slot
// that ends the probe holds a zero value).
func (m *Map) Get(k uint64) (uint64, bool) {
	i, ok := m.find(k)
	return m.slots[i].val, ok
}

// Contains reports whether k is present.
func (m *Map) Contains(k uint64) bool {
	_, ok := m.find(k)
	return ok
}

// Set stores v under k, inserting or overwriting.
func (m *Map) Set(k, v uint64) {
	m.Swap(k, v)
}

// Swap stores v under k and reports whether k was already present
// (returning the previous value). It is Set with the membership answer
// from the same probe, for callers that track insertions separately.
func (m *Map) Swap(k, v uint64) (prev uint64, existed bool) {
	if k == Reserved {
		panic("flatmap: reserved key")
	}
	i, ok := m.find(k)
	if ok {
		prev, m.slots[i].val = m.slots[i].val, v
		return prev, true
	}
	if m.n == m.limit {
		m.rehash(len(m.slots) * 2)
		// The vacancy found above is stale after the rehash.
		i, _ = m.find(k)
	}
	m.slots[i] = slot{k + 1, v}
	m.n++
	return 0, false
}

func (m *Map) rehash(slots int) {
	old := m.slots
	m.init(slots)
	for _, e := range old {
		if e.key == 0 {
			continue
		}
		j := m.home(e.key - 1)
		for m.slots[j].key != 0 {
			j = (j + 1) & m.mask
		}
		m.slots[j] = e
		m.n++
	}
}

// Delete removes k, reporting whether it was present. Backward-shift
// deletion re-packs the probe chain so no tombstones accumulate.
func (m *Map) Delete(k uint64) bool {
	i, ok := m.find(k)
	if !ok {
		return false
	}
	m.n--
	j := i
	for {
		j = (j + 1) & m.mask
		e := m.slots[j]
		if e.key == 0 {
			break
		}
		// e may move into the vacated slot i only if its home lies
		// cyclically at or before i (moving it cannot break its own
		// probe chain).
		if ((j - m.home(e.key-1)) & m.mask) >= ((j - i) & m.mask) {
			m.slots[i] = e
			i = j
		}
	}
	m.slots[i] = slot{}
	return true
}

// Clear removes every entry, keeping the table's capacity.
func (m *Map) Clear() {
	clear(m.slots)
	m.n = 0
}

// Reset empties the map and sizes its table as New(capacity) would,
// reusing the table when it already has that size. Iteration order
// depends on the table size, so a map that grew and is then Reset
// ranges exactly like a new one, where a Cleared one need not.
func (m *Map) Reset(capacity int) {
	if slots := slotsFor(capacity); slots != len(m.slots) {
		m.init(slots)
		return
	}
	m.Clear()
}

// Range calls f for each entry in slot order (deterministic for a
// given operation history) until f returns false. The map must not be
// mutated during the walk.
func (m *Map) Range(f func(k, v uint64) bool) {
	for _, e := range m.slots {
		if e.key == 0 {
			continue
		}
		if !f(e.key-1, e.val) {
			return
		}
	}
}
