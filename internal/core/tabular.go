package core

import (
	"fmt"
	"math/rand"

	"resemble/internal/checkpoint"
	"resemble/internal/flatmap"
	"resemble/internal/mem"
	"resemble/internal/prefetch"
	"resemble/internal/telemetry"
)

// TabularController is the tabular variant of ReSemble (Section IV-F):
// a Q-table indexed by tokenized hash-compressed states. Address space
// is reduced with a B-bit fold hash (Equation 12) and the sparse state
// space is compressed by tokenizing the unique states actually seen
// (Figure 5). Instead of a replay memory it keeps a small buffer of
// pending transitions and applies one Q-learning update (Equation 13)
// per transition as soon as its reward is available.
type TabularController struct {
	cfg         Config
	prefetchers []prefetch.Prefetcher

	// The Q-table is one flat slab with a row of NumActions() values
	// per token, so a new state appends to it rather than allocating a
	// row. keys inverts tokens (token -> state key), which gives
	// checkpoints and saved models their token order.
	tokens *flatmap.Map // state key -> token (Q-table row)
	keys   []uint64
	q      []float64
	na     int // NumActions(): the slab's row stride

	tracker *RewardTracker
	rngSrc  *checkpoint.RandSource
	rng     *rand.Rand

	step    int
	prevSeq int

	// pending holds transitions awaiting reward and/or next state: a
	// ring indexed by seq (see newPendingRing).
	pending []tabTransition

	obs    []Observation
	order  []int
	out    []mem.Line
	hitSeq []int
	expSeq []int

	rewards []float64
	acts    []int8

	// Telemetry accumulators (always maintained) and handles (nil
	// unless AttachTelemetry was called).
	rewardSum    float64
	actionCounts []uint64
	armIssued    []uint64
	armUseful    []uint64
	armUseless   []uint64
	tel          *telemetry.Collector
	hTD          *telemetry.Histogram
	cUpdates     *telemetry.Counter
	qWindow      []float64
	qPending     bool

	// Graceful degradation: persistently useless arms are masked out of
	// selection (no-op unless cfg.MaskFloor > 0).
	mask armMask

	// Explainability: decisions sampled by the collector wait here until
	// the reward window resolves them (bounded by the window size).
	explainPending map[int]*telemetry.Decision
	explainNames   []string
}

// AttachTelemetry implements telemetry.Attachable.
func (c *TabularController) AttachTelemetry(t *telemetry.Collector) {
	c.tel = t
	c.qPending = t != nil
	r := t.Registry()
	c.hTD = r.Histogram("core.tabular.td_error")
	c.cUpdates = r.Counter("core.tabular.updates")
	r.Gauge("core.tabular.unique_states").Set(float64(len(c.keys)))
	c.mask.attach(r)
	for _, p := range c.prefetchers {
		if a, ok := p.(telemetry.Attachable); ok {
			a.AttachTelemetry(t)
		}
	}
}

// TelemetryStats implements telemetry.ControllerProbe; QValues is
// drained by the call.
func (c *TabularController) TelemetryStats() telemetry.ControllerStats {
	qv := append([]float64(nil), c.qWindow...)
	c.qWindow = c.qWindow[:0]
	if c.tel != nil {
		c.tel.Registry().Gauge("core.tabular.unique_states").Set(float64(len(c.keys)))
	}
	return telemetry.ControllerStats{
		Steps:        c.step,
		Epsilon:      c.cfg.epsilon(c.step),
		RewardSum:    c.rewardSum,
		ActionNames:  c.ActionNames(),
		ActionCounts: c.actionCounts,
		ArmIssued:    c.armIssued,
		ArmUseful:    c.armUseful,
		ArmUseless:   c.armUseless,
		QValues:      qv,
	}
}

// tabTransition is one pending-ring slot (32-bit indexes and bools
// last, to pack it into 40 bytes).
type tabTransition struct {
	seq     int
	token   int32
	action  int32
	nextTok int32
	// outstanding counts unresolved issued lines; acc accumulates their
	// ±1 outcomes (same degree-aware reward as the MLP variant).
	outstanding int32
	acc         float64
	live        bool // slot holds an unresolved transition
	np          bool
	hasNext     bool
}

// NewTabularController builds the tabular ensemble controller. It
// panics on invalid configuration or an empty prefetcher list.
func NewTabularController(cfg Config, prefetchers []prefetch.Prefetcher) *TabularController {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if len(prefetchers) == 0 {
		panic("core: controller needs at least one prefetcher")
	}
	c := &TabularController{cfg: cfg, prefetchers: prefetchers}
	c.initModel()
	return c
}

func (c *TabularController) initModel() {
	c.rngSrc = checkpoint.NewRandSource(c.cfg.Seed)
	c.rng = rand.New(c.rngSrc)
	c.na = c.NumActions()
	c.tokens = flatmap.New(256)
	c.keys = c.keys[:0]
	c.q = c.q[:0]
	c.tracker = NewRewardTracker(c.cfg.Window)
	c.pending = newPendingRing(c.cfg.Window)
	c.step = 0
	c.prevSeq = -1
	c.rewards = c.rewards[:0]
	c.acts = c.acts[:0]
	c.rewardSum = 0
	c.actionCounts = make([]uint64, c.NumActions())
	c.armIssued = make([]uint64, c.NumActions())
	c.armUseful = make([]uint64, c.NumActions())
	c.armUseless = make([]uint64, c.NumActions())
	c.qWindow = c.qWindow[:0]
	c.mask = newArmMask(c.cfg, c.NumActions())
	c.explainPending = nil
	c.explainNames = nil
}

// MaskedArms reports how many input prefetchers are currently masked
// out of selection (always 0 with masking disabled).
func (c *TabularController) MaskedArms() int { return c.mask.activeCount() }

// ArmMasked reports whether input prefetcher i is currently masked.
func (c *TabularController) ArmMasked(i int) bool { return c.mask.isMasked(i) }

// Name implements sim.Source.
func (c *TabularController) Name() string { return "resemble-t" }

// NumActions returns |A| = one per prefetcher plus NP.
func (c *TabularController) NumActions() int { return len(c.prefetchers) + 1 }

func (c *TabularController) npAction() int { return len(c.prefetchers) }

// Reset implements sim.Source.
func (c *TabularController) Reset() {
	for _, p := range c.prefetchers {
		p.Reset()
	}
	c.initModel()
}

// UniqueStates returns the number of tokenized states, the quantity
// Table IV's tokenized-table size is based on.
func (c *TabularController) UniqueStates() int { return len(c.keys) }

// optimisticInit is the initial Q-value of prefetching actions in a
// fresh row. Starting above NP's 0 makes the table try a prefetcher
// once in states it has never seen instead of freezing on NP — with a
// sparse hashed state space (especially for temporal predictions, whose
// hashed addresses rarely repeat exactly) cold rows are common, and
// pessimistic zeros would make the tabular variant mostly idle.
const optimisticInit = 0.5

// tokenOf tokenizes a state key, appending a fresh optimistic Q-table
// row on first sight.
func (c *TabularController) tokenOf(key uint64) int {
	if tok, ok := c.tokens.Get(key); ok {
		return int(tok)
	}
	tok := len(c.keys)
	c.tokens.Set(key, uint64(tok))
	c.keys = append(c.keys, key)
	for i := 0; i < c.npAction(); i++ {
		c.q = append(c.q, optimisticInit)
	}
	c.q = append(c.q, 0) // NP
	return tok
}

// row returns token tok's Q-values, one per action (aliases the slab).
func (c *TabularController) row(tok int) []float64 {
	i := tok * c.na
	return c.q[i : i+c.na : i+c.na]
}

// newPendingRing sizes the pending-transition ring. A prefetching
// transition resolves within window accesses: its unmatched lines
// expire in the reward resolution of access seq+window, which runs
// before that access adds its own transition. An NP transition
// resolves one access later, when its successor arrives. So when seq
// is added, only seqs in (seq-window, seq] can be pending, and slot
// seq&(len-1) is always free once len >= window.
func newPendingRing(window int) []tabTransition {
	n := 1
	for n < window {
		n <<= 1
	}
	return make([]tabTransition, n)
}

// pendingAt returns seq's unresolved transition, or nil.
func (c *TabularController) pendingAt(seq int) *tabTransition {
	t := &c.pending[seq&(len(c.pending)-1)]
	if t.live && t.seq == seq {
		return t
	}
	return nil
}

// addPending stores t in its ring slot. The slot must be free: an
// occupied one means a transition outlived the reward window, which
// the resolution rules make impossible, so it is a bug, never a
// transition to overwrite.
func (c *TabularController) addPending(t tabTransition) {
	slot := &c.pending[t.seq&(len(c.pending)-1)]
	if slot.live {
		panic(fmt.Sprintf("core: pending transition %d unresolved when %d needs its slot", slot.seq, t.seq))
	}
	t.live = true
	*slot = t
}

// OnAccess implements sim.Source.
func (c *TabularController) OnAccess(a prefetch.AccessContext) []mem.Line {
	seq := c.step
	c.step++

	c.obs, c.order = CollectObservations(c.prefetchers, a, c.obs, c.order)
	key := TabularKey(c.obs, a.Addr, a.PC, c.cfg.TableHashBits, c.cfg.UsePC)
	tok := c.tokenOf(key)

	// Reward resolution, then immediate Q updates for resolved
	// transitions that already know their successor state.
	c.hitSeq, c.expSeq = c.tracker.Resolve(seq, a.Line, c.hitSeq, c.expSeq)
	for _, s := range c.hitSeq {
		c.armUseful[c.acts[s]]++
		c.applyReward(s, 1)
	}
	for _, s := range c.expSeq {
		c.armUseless[c.acts[s]]++
		c.applyReward(s, -1)
	}

	// Fill the previous transition's successor token.
	if t := c.pendingAt(c.prevSeq); t != nil && !t.hasNext {
		t.nextTok = int32(tok)
		t.hasNext = true
	}

	// ε-greedy action over the Q row; exploitation masks padded
	// (invalid) suggestions since picking one just executes NP, and
	// breaks near-ties randomly (deterministic argmax would freeze on
	// one of several equally good arms in a repeated state, while the
	// MLP variant naturally alternates through approximation noise).
	c.mask.tick(c.armUseful, c.armUseless)
	var action int
	explored := false
	if c.rng.Float64() < c.cfg.epsilon(seq) {
		explored = true
		action = c.mask.explore(c.rng, c.NumActions())
	} else {
		if c.qPending {
			c.qWindow = append(c.qWindow, c.row(tok)...)
		}
		action = c.pickValid(c.row(tok))
	}
	if c.tel.ExplainTick() {
		c.explain(seq, key, tok, action, explored)
	}

	c.out = c.out[:0]
	t := tabTransition{seq: seq, token: int32(tok), action: int32(action)}
	if action == c.npAction() || !c.obs[action].Valid {
		t.np = true
		c.recordReward(seq, 0)
		// NP reward is 0 immediately; the update happens once the
		// successor is known.
	} else {
		for _, s := range c.obs[action].All {
			c.out = append(c.out, s.Line)
			c.tracker.Add(seq, s.Line)
		}
		t.outstanding = int32(len(c.out))
		c.armIssued[action] += uint64(len(c.out))
	}
	c.recordAction(seq, action)
	c.addPending(t)
	c.prevSeq = seq
	if c.tel != nil {
		c.tel.Trace(telemetry.Event{Seq: uint64(seq), Kind: telemetry.KindAction, PC: a.PC, Addr: uint64(a.Addr), Action: int8(action)})
	}

	// NP transitions resolve as soon as the successor arrives.
	if prev := c.pendingAt(seq - 1); prev != nil && prev.np && prev.hasNext {
		c.update(prev, 0)
		prev.live = false
	}
	return c.out
}

// applyReward adds one line's outcome to its transition and applies the
// Q update once every issued line has resolved.
func (c *TabularController) applyReward(seq int, r float64) {
	t := c.pendingAt(seq)
	if t == nil {
		return
	}
	t.acc += r
	t.outstanding--
	if t.outstanding > 0 {
		return
	}
	c.recordReward(seq, t.acc)
	c.update(t, t.acc)
	t.live = false
}

// update applies Equation 13 to one transition.
func (c *TabularController) update(t *tabTransition, r float64) {
	var future float64
	if t.hasNext {
		future = c.cfg.Gamma * maxf(c.row(int(t.nextTok)))
	}
	qsa := &c.q[int(t.token)*c.na+int(t.action)]
	if c.hTD != nil {
		c.hTD.Observe(absf(r + future - *qsa))
	}
	*qsa += c.cfg.LR * (r + future - *qsa)
	c.cUpdates.Inc()
}

func (c *TabularController) recordReward(seq int, r float64) {
	for len(c.rewards) <= seq {
		c.rewards = append(c.rewards, 0)
	}
	c.rewards[seq] = r
	c.rewardSum += r
	if c.tel != nil && r != 0 {
		c.tel.Trace(telemetry.Event{Seq: uint64(seq), Kind: telemetry.KindReward, Reward: r})
	}
	if d, ok := c.explainPending[seq]; ok {
		delete(c.explainPending, seq)
		d.Reward = r
		d.Resolved = true
		c.tel.RecordDecision(*d)
	}
}

// explain registers a sampled decision record for seq; recordReward
// emits it once the reward window resolves the decision.
func (c *TabularController) explain(seq int, key uint64, tok, action int, explored bool) {
	d := &telemetry.Decision{
		Seq:        uint64(seq),
		Epsilon:    c.cfg.epsilon(seq),
		Explored:   explored,
		StateKey:   key,
		Q:          append([]float64(nil), c.row(tok)...),
		Action:     action,
		ActionName: c.actionName(action),
	}
	if c.mask.anyMasked() {
		for i := 0; i < c.NumActions(); i++ {
			if c.mask.isMasked(i) {
				d.MaskedArms = append(d.MaskedArms, c.actionName(i))
			}
		}
	}
	if c.explainPending == nil {
		c.explainPending = map[int]*telemetry.Decision{}
	}
	c.explainPending[seq] = d
}

// actionName resolves one action index to its display name, caching
// the ActionNames slice (stable for the controller's lifetime).
func (c *TabularController) actionName(i int) string {
	if c.explainNames == nil {
		c.explainNames = c.ActionNames()
	}
	if i < 0 || i >= len(c.explainNames) {
		return "?"
	}
	return c.explainNames[i]
}

func (c *TabularController) recordAction(seq, a int) {
	for len(c.acts) <= seq {
		c.acts = append(c.acts, 0)
	}
	c.acts[seq] = int8(a)
	c.actionCounts[a]++
}

// RewardSeries returns the resolved reward per access (aliases internal
// state).
func (c *TabularController) RewardSeries() []float64 { return c.rewards }

// ActionSeries returns the chosen action per access (aliases internal
// state).
func (c *TabularController) ActionSeries() []int8 { return c.acts }

// ActionNames returns a label per action index.
func (c *TabularController) ActionNames() []string {
	names := make([]string, 0, c.NumActions())
	for pass := 0; pass < 2; pass++ {
		wantSpatial := pass == 0
		for _, p := range c.prefetchers {
			if p.Spatial() == wantSpatial {
				names = append(names, p.Name())
			}
		}
	}
	return append(names, "NP")
}

// pickValid returns the highest-Q action among valid suggestions and
// NP, choosing uniformly among actions whose Q lies within a small band
// of the maximum.
func (c *TabularController) pickValid(q []float64) int {
	best := c.npAction()
	for i := range c.obs {
		if c.obs[i].Valid && !c.mask.isMasked(i) && q[i] > q[best] {
			best = i
		}
	}
	// Near-tie band: 1% of |Q_max| with a small absolute floor, so only
	// genuinely equivalent arms alternate.
	band := 0.01 * absf(q[best])
	if band < 1e-6 {
		band = 1e-6
	}
	ties := 0
	pick := best
	for i := 0; i <= c.npAction(); i++ {
		if i < c.npAction() && (!c.obs[i].Valid || c.mask.isMasked(i)) {
			continue
		}
		if q[i] >= q[best]-band {
			ties++
			if c.rng.Intn(ties) == 0 {
				pick = i
			}
		}
	}
	return pick
}

func absf(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
