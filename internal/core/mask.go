package core

import (
	"math/rand"

	"resemble/internal/telemetry"
)

// armMask implements graceful degradation: an input prefetcher whose
// resolved-prefetch accuracy stays below a floor for several
// consecutive windows is masked out of action selection entirely —
// excluded from the exploitation argmax and from uniform exploration —
// so a faulty or pathologically mismatched prefetcher cannot keep
// polluting the cache through ε-greedy draws. Masked arms are
// periodically re-probed so transient faults recover.
//
// With MaskFloor <= 0 every method is a no-op and, critically, the
// exploration path consumes the RNG stream exactly as before, so
// existing results and checkpoints are unaffected.
type armMask struct {
	floor      float64
	window     uint64
	badLimit   int
	minSamples uint64
	reprobe    uint64

	n uint64 // accesses observed

	// Window baselines (cumulative counters at the last boundary) and
	// per-arm judgment. All are sized to the arm count (NP excluded —
	// no-prefetch is always allowed).
	lastUseful  []uint64
	lastUseless []uint64
	badStreak   []int
	masked      []bool
	maskedAt    []uint64

	allowedBuf []int // scratch for exploration draws

	cMasked   *telemetry.Counter
	cReprobed *telemetry.Counter
}

func newArmMask(cfg Config, numActions int) armMask {
	var m armMask
	m.reset(cfg, numActions)
	return m
}

// reset puts m in the state newArmMask(cfg, numActions) builds,
// reusing its slices; the instrument handles are dropped, as on a new
// mask.
func (m *armMask) reset(cfg Config, numActions int) {
	old := *m
	*m = armMask{
		floor:      cfg.MaskFloor,
		window:     uint64(cfg.MaskWindow),
		badLimit:   cfg.MaskBadWindows,
		minSamples: uint64(cfg.MaskMinSamples),
		reprobe:    uint64(cfg.MaskReprobe),
		allowedBuf: old.allowedBuf[:0],
	}
	if m.floor <= 0 {
		return
	}
	if m.window == 0 {
		m.window = 2048
	}
	if m.badLimit == 0 {
		m.badLimit = 2
	}
	if m.minSamples == 0 {
		m.minSamples = 16
	}
	if m.reprobe == 0 {
		m.reprobe = 8 * m.window
	}
	arms := numActions - 1
	m.lastUseful = zeroed(old.lastUseful, arms)
	m.lastUseless = zeroed(old.lastUseless, arms)
	m.badStreak = zeroed(old.badStreak, arms)
	m.masked = zeroed(old.masked, arms)
	m.maskedAt = zeroed(old.maskedAt, arms)
}

// zeroed returns n zero values, in s's array when it is large enough.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

func (m *armMask) enabled() bool { return m.floor > 0 }

// attach registers the mask's instruments (nil-safe handles).
func (m *armMask) attach(r *telemetry.Registry) {
	m.cMasked = r.Counter("core.mask.masked")
	m.cReprobed = r.Counter("core.mask.reprobed")
}

// isMasked reports whether action i is currently masked. NP (and any
// index beyond the arm count) is never masked.
func (m *armMask) isMasked(i int) bool {
	return m.enabled() && i < len(m.masked) && m.masked[i]
}

func (m *armMask) anyMasked() bool {
	if !m.enabled() {
		return false
	}
	for _, v := range m.masked {
		if v {
			return true
		}
	}
	return false
}

// activeCount returns how many arms are currently masked.
func (m *armMask) activeCount() int {
	n := 0
	for _, v := range m.masked {
		if v {
			n++
		}
	}
	return n
}

// tick advances the mask by one access, evaluating arms at window
// boundaries against the cumulative useful/useless counters and
// un-masking arms whose re-probe timer expired.
func (m *armMask) tick(useful, useless []uint64) {
	if !m.enabled() {
		return
	}
	m.n++
	for i := range m.masked {
		if m.masked[i] && m.n-m.maskedAt[i] >= m.reprobe {
			m.masked[i] = false
			m.badStreak[i] = 0
			// Restart the probe window from the current counters so stale
			// pre-mask outcomes don't re-condemn the arm instantly.
			m.lastUseful[i] = useful[i]
			m.lastUseless[i] = useless[i]
			m.cReprobed.Inc()
		}
	}
	if m.n%m.window != 0 {
		return
	}
	for i := range m.masked {
		if m.masked[i] {
			continue
		}
		good := useful[i] - m.lastUseful[i]
		bad := useless[i] - m.lastUseless[i]
		decided := good + bad
		if decided >= m.minSamples && float64(good) < m.floor*float64(decided) {
			m.badStreak[i]++
			if m.badStreak[i] >= m.badLimit {
				m.masked[i] = true
				m.maskedAt[i] = m.n
				m.cMasked.Inc()
			}
		} else {
			m.badStreak[i] = 0
		}
		m.lastUseful[i] = useful[i]
		m.lastUseless[i] = useless[i]
	}
}

// explore draws a uniform exploration action over the unmasked action
// set. With nothing masked it is exactly rng.Intn(numActions) — one
// draw, same stream as the pre-mask code.
func (m *armMask) explore(rng *rand.Rand, numActions int) int {
	if !m.anyMasked() {
		return rng.Intn(numActions)
	}
	m.allowedBuf = m.allowedBuf[:0]
	for i := 0; i < numActions; i++ {
		if !m.isMasked(i) {
			m.allowedBuf = append(m.allowedBuf, i)
		}
	}
	return m.allowedBuf[rng.Intn(len(m.allowedBuf))]
}

// maskState is the gob mirror for checkpointing.
type maskState struct {
	N           uint64
	LastUseful  []uint64
	LastUseless []uint64
	BadStreak   []int
	Masked      []bool
	MaskedAt    []uint64
}

func (m *armMask) saveState() maskState {
	return maskState{
		N:          m.n,
		LastUseful: m.lastUseful, LastUseless: m.lastUseless,
		BadStreak: m.badStreak, Masked: m.masked, MaskedAt: m.maskedAt,
	}
}

// loadState restores the judgment state. Slice lengths are normalized
// to the arm count so snapshots from a masking-disabled run load into a
// masking-disabled controller (all nil) and vice versa is rejected by
// length.
func (m *armMask) loadState(st maskState, numActions int) {
	if !m.enabled() {
		return
	}
	arms := numActions - 1
	m.n = st.N
	m.lastUseful = orZeros(st.LastUseful, arms)
	m.lastUseless = orZeros(st.LastUseless, arms)
	m.badStreak = orZeroInts(st.BadStreak, arms)
	m.maskedAt = orZeros(st.MaskedAt, arms)
	if st.Masked == nil {
		st.Masked = make([]bool, arms)
	}
	m.masked = st.Masked
}

func orZeroInts(v []int, n int) []int {
	if v == nil {
		return make([]int, n)
	}
	return v
}
