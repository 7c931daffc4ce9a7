package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"slices"

	"resemble/internal/checkpoint"
	"resemble/internal/flatmap"
	"resemble/internal/mem"
	"resemble/internal/nn"
	"resemble/internal/prefetch"
)

// Full-state checkpointing for both controllers (checkpoint.Stater).
// Unlike SaveModel/LoadModel — which persist only the learned
// parameters for reuse on other traces — SaveState captures everything
// needed to continue the exact run: both networks, the replay memory,
// the reward window, per-arm counters, the RNG position, and every
// input prefetcher's tables. An interrupted-and-resumed run is
// byte-identical to an uninterrupted one (see the determinism tests).

// trackerState mirrors RewardTracker.
type trackerState struct {
	Window int
	Seqs   []int
	Lines  []mem.Line
}

func (t *RewardTracker) saveState() trackerState {
	st := trackerState{Window: t.window}
	for _, r := range t.recs.Live() {
		if !r.resolved {
			st.Seqs = append(st.Seqs, r.seq)
			st.Lines = append(st.Lines, r.line)
		}
	}
	return st
}

// validate checks a tracker snapshot against the configured window
// before any state is replaced.
func (st trackerState) validate(window int) error {
	if st.Window != window {
		return fmt.Errorf("core: reward window %d does not match configured %d", st.Window, window)
	}
	if len(st.Seqs) != len(st.Lines) {
		return fmt.Errorf("core: mismatched reward-tracker lengths")
	}
	for i, line := range st.Lines {
		if line == flatmap.Reserved {
			return fmt.Errorf("core: reserved reward-tracker line")
		}
		if i > 0 && st.Seqs[i] < st.Seqs[i-1] {
			return fmt.Errorf("core: reward-tracker records out of seq order")
		}
	}
	return nil
}

// loadState installs a snapshot that passed validate.
func (t *RewardTracker) loadState(st trackerState) {
	t.Reset()
	for i := range st.Seqs {
		t.Add(st.Seqs[i], st.Lines[i])
	}
}

// replayState mirrors Replay (Transition already has exported fields).
type replayState struct {
	Buf []Transition
	N   int
}

// savePrefetchers snapshots each input prefetcher; all of them must
// implement checkpoint.Stater.
func savePrefetchers(ps []prefetch.Prefetcher) ([][]byte, error) {
	out := make([][]byte, len(ps))
	for i, p := range ps {
		st, ok := p.(checkpoint.Stater)
		if !ok {
			return nil, fmt.Errorf("core: prefetcher %q does not support checkpointing", p.Name())
		}
		var buf bytes.Buffer
		if err := st.SaveState(&buf); err != nil {
			return nil, fmt.Errorf("core: prefetcher %q: %w", p.Name(), err)
		}
		out[i] = buf.Bytes()
	}
	return out, nil
}

func loadPrefetchers(ps []prefetch.Prefetcher, blobs [][]byte) error {
	if len(blobs) != len(ps) {
		return fmt.Errorf("core: snapshot has %d prefetchers, controller has %d", len(blobs), len(ps))
	}
	for i, p := range ps {
		st, ok := p.(checkpoint.Stater)
		if !ok {
			return fmt.Errorf("core: prefetcher %q does not support checkpointing", p.Name())
		}
		if err := st.LoadState(bytes.NewReader(blobs[i])); err != nil {
			return fmt.Errorf("core: prefetcher %q: %w", p.Name(), err)
		}
	}
	return nil
}

// controllerState is the gob payload of the DQN controller.
type controllerState struct {
	Seed     int64
	RNGDraws uint64

	Step    int
	PrevSeq int

	Policy, Target []byte // nn snapshot streams

	Replay  replayState
	Tracker trackerState

	// The per-transition reward accumulators, in seq order (the maps
	// they mirror have no stable iteration order).
	Outstanding []seqEntry[int]
	RewardAcc   []seqEntry[float64]

	Rewards []float64
	Acts    []int8

	RewardSum    float64
	ActionCounts []uint64
	ArmIssued    []uint64
	ArmUseful    []uint64
	ArmUseless   []uint64
	QWindow      []float64

	ForcedNP, ChosenNP int

	Mask maskState

	Prefetchers [][]byte
}

// SaveState implements checkpoint.Stater.
func (c *Controller) SaveState(w io.Writer) error {
	var policy, target bytes.Buffer
	if err := c.policy.Save(&policy); err != nil {
		return err
	}
	if err := c.target.Save(&target); err != nil {
		return err
	}
	blobs, err := savePrefetchers(c.prefetchers)
	if err != nil {
		return err
	}
	seed, draws := c.rngSrc.State()
	st := controllerState{
		Seed: seed, RNGDraws: draws,
		Step: c.step, PrevSeq: c.prevSeq,
		Policy: policy.Bytes(), Target: target.Bytes(),
		Replay:      replayState{Buf: c.replay.buf, N: c.replay.n},
		Tracker:     c.tracker.saveState(),
		Outstanding: bySeq(c.outstanding), RewardAcc: bySeq(c.rewardAcc),
		Rewards: c.rewards, Acts: c.acts,
		RewardSum: c.rewardSum, ActionCounts: c.actionCounts,
		ArmIssued: c.armIssued, ArmUseful: c.armUseful, ArmUseless: c.armUseless,
		QWindow:  c.qWindow,
		ForcedNP: c.forcedNP, ChosenNP: c.chosenNP,
		Mask:        c.mask.saveState(),
		Prefetchers: blobs,
	}
	return gob.NewEncoder(w).Encode(st)
}

// LoadState implements checkpoint.Stater. The snapshot is fully
// decoded and validated before any controller state is replaced, so a
// failed load leaves the controller usable.
func (c *Controller) LoadState(r io.Reader) error {
	var st controllerState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("core: controller state: %w", err)
	}
	if st.Seed != c.cfg.Seed {
		return fmt.Errorf("core: snapshot seed %d does not match configured %d", st.Seed, c.cfg.Seed)
	}
	if len(st.ActionCounts) != c.NumActions() {
		return fmt.Errorf("core: snapshot has %d actions, controller needs %d", len(st.ActionCounts), c.NumActions())
	}
	if len(st.Replay.Buf) != c.replay.Cap() {
		return fmt.Errorf("core: snapshot replay capacity %d does not match configured %d", len(st.Replay.Buf), c.replay.Cap())
	}
	policy, err := loadMLPMatching(st.Policy, c.policy)
	if err != nil {
		return fmt.Errorf("core: policy net: %w", err)
	}
	target, err := loadMLPMatching(st.Target, c.target)
	if err != nil {
		return fmt.Errorf("core: target net: %w", err)
	}
	if err := st.Tracker.validate(c.tracker.window); err != nil {
		return err
	}
	outstanding, err := fromSeq(st.Outstanding)
	if err != nil {
		return err
	}
	rewardAcc, err := fromSeq(st.RewardAcc)
	if err != nil {
		return err
	}
	if err := loadPrefetchers(c.prefetchers, st.Prefetchers); err != nil {
		return err
	}
	c.tracker.loadState(st.Tracker)
	c.policy.CopyWeightsFrom(policy)
	c.target.CopyWeightsFrom(target)
	// The fixed serving snapshot is a pure function of the target net
	// and carries no state of its own; rebuild it from the restored
	// weights.
	c.refreshFixed()
	c.replay.buf = st.Replay.Buf
	c.replay.n = st.Replay.N
	c.rngSrc.Restore(st.Seed, st.RNGDraws)
	c.step = st.Step
	c.prevSeq = st.PrevSeq
	c.outstanding = outstanding
	c.rewardAcc = rewardAcc
	c.rewards = st.Rewards
	c.acts = st.Acts
	c.rewardSum = st.RewardSum
	c.actionCounts = st.ActionCounts
	c.armIssued = orZeros(st.ArmIssued, c.NumActions())
	c.armUseful = orZeros(st.ArmUseful, c.NumActions())
	c.armUseless = orZeros(st.ArmUseless, c.NumActions())
	c.qWindow = st.QWindow
	c.forcedNP = st.ForcedNP
	c.chosenNP = st.ChosenNP
	c.mask.loadState(st.Mask, c.NumActions())
	return nil
}

// tabularState is the gob payload of the tabular controller. Tokens
// are listed in token order (TokenVals[i] == i on save; older
// snapshots in any order load too) and pending transitions in seq
// order, so equal controller states encode to equal bytes.
type tabularState struct {
	Seed     int64
	RNGDraws uint64

	Step    int
	PrevSeq int

	TokenKeys []uint64
	TokenVals []int
	Q         [][]float64

	Tracker trackerState

	PendingSeqs []int
	Pending     []tabTransitionState

	Rewards []float64
	Acts    []int8

	RewardSum    float64
	ActionCounts []uint64
	ArmIssued    []uint64
	ArmUseful    []uint64
	ArmUseless   []uint64
	QWindow      []float64

	Mask maskState

	Prefetchers [][]byte
}

type tabTransitionState struct {
	Token       int
	Action      int
	NP          bool
	NextTok     int
	HasNext     bool
	Outstanding int
	Acc         float64
}

// SaveState implements checkpoint.Stater.
func (c *TabularController) SaveState(w io.Writer) error {
	blobs, err := savePrefetchers(c.prefetchers)
	if err != nil {
		return err
	}
	seed, draws := c.rngSrc.State()
	st := tabularState{
		Seed: seed, RNGDraws: draws,
		Step: c.step, PrevSeq: c.prevSeq,
		TokenKeys: c.keys,
		Q:         make([][]float64, len(c.keys)),
		Tracker:   c.tracker.saveState(),
		Rewards:   c.rewards, Acts: c.acts,
		RewardSum: c.rewardSum, ActionCounts: c.actionCounts,
		ArmIssued: c.armIssued, ArmUseful: c.armUseful, ArmUseless: c.armUseless,
		QWindow:     c.qWindow,
		Mask:        c.mask.saveState(),
		Prefetchers: blobs,
	}
	st.TokenVals = make([]int, len(c.keys))
	for tok := range c.keys {
		st.TokenVals[tok] = tok
		st.Q[tok] = c.row(tok)
	}
	for seq := c.step - len(c.pending); seq < c.step; seq++ {
		t := c.pendingAt(seq)
		if t == nil {
			continue
		}
		st.PendingSeqs = append(st.PendingSeqs, seq)
		st.Pending = append(st.Pending, tabTransitionState{
			Token: int(t.token), Action: int(t.action), NP: t.np,
			NextTok: int(t.nextTok), HasNext: t.hasNext,
			Outstanding: int(t.outstanding), Acc: t.acc,
		})
	}
	return gob.NewEncoder(w).Encode(st)
}

// LoadState implements checkpoint.Stater; decode-then-install, so a
// failed load leaves the controller usable.
func (c *TabularController) LoadState(r io.Reader) error {
	var st tabularState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return fmt.Errorf("core: tabular state: %w", err)
	}
	if st.Seed != c.cfg.Seed {
		return fmt.Errorf("core: snapshot seed %d does not match configured %d", st.Seed, c.cfg.Seed)
	}
	if len(st.ActionCounts) != c.NumActions() {
		return fmt.Errorf("core: snapshot has %d actions, controller needs %d", len(st.ActionCounts), c.NumActions())
	}
	if len(st.TokenKeys) != len(st.TokenVals) || len(st.TokenKeys) != len(st.Q) {
		return fmt.Errorf("core: mismatched token-table lengths")
	}
	if len(st.PendingSeqs) != len(st.Pending) {
		return fmt.Errorf("core: mismatched pending-transition lengths")
	}
	for _, row := range st.Q {
		if len(row) != c.NumActions() {
			return fmt.Errorf("core: Q row has %d actions, controller needs %d", len(row), c.NumActions())
		}
	}
	tokens, keys, err := loadTokens(st.TokenKeys, st.TokenVals)
	if err != nil {
		return err
	}
	if err := st.Tracker.validate(c.tracker.window); err != nil {
		return err
	}
	pending, err := loadPending(st, len(keys), c.NumActions())
	if err != nil {
		return err
	}
	if err := loadPrefetchers(c.prefetchers, st.Prefetchers); err != nil {
		return err
	}
	c.tracker.loadState(st.Tracker)
	c.rngSrc.Restore(st.Seed, st.RNGDraws)
	c.step = st.Step
	c.prevSeq = st.PrevSeq
	c.tokens = tokens
	c.keys = keys
	c.q = c.q[:0]
	for _, row := range st.Q {
		c.q = append(c.q, row...)
	}
	c.pending = pending
	c.rewards = st.Rewards
	c.acts = st.Acts
	c.rewardSum = st.RewardSum
	c.actionCounts = st.ActionCounts
	c.armIssued = orZeros(st.ArmIssued, c.NumActions())
	c.armUseful = orZeros(st.ArmUseful, c.NumActions())
	c.armUseless = orZeros(st.ArmUseless, c.NumActions())
	c.qWindow = st.QWindow
	c.mask.loadState(st.Mask, c.NumActions())
	return nil
}

// loadTokens rebuilds the token index from a snapshot's parallel
// key/token lists; the tokens must be a permutation of 0..n-1 (rows of
// Q) and the keys distinct and storable.
func loadTokens(keyList []uint64, vals []int) (*flatmap.Map, []uint64, error) {
	tokens := flatmap.New(len(keyList))
	keys := make([]uint64, len(keyList))
	seen := make([]bool, len(keyList))
	for i, key := range keyList {
		tok := vals[i]
		if tok < 0 || tok >= len(keys) || seen[tok] {
			return nil, nil, fmt.Errorf("core: token %d out of range or repeated", tok)
		}
		if key == flatmap.Reserved {
			return nil, nil, fmt.Errorf("core: reserved token key %#x", key)
		}
		if _, dup := tokens.Swap(key, uint64(tok)); dup {
			return nil, nil, fmt.Errorf("core: duplicate token key %#x", key)
		}
		seen[tok] = true
		keys[tok] = key
	}
	return tokens, keys, nil
}

// loadPending rebuilds the pending-transition ring. Each transition
// must fit the ring (within one ring length before Step, no two on one
// slot), reference valid tokens and actions, and a prefetching one must
// own exactly Outstanding tracker records — otherwise it could never
// resolve and would collide with a later seq.
func loadPending(st tabularState, nTokens, nActions int) ([]tabTransition, error) {
	ring := newPendingRing(st.Tracker.Window)
	records := map[int]int{}
	for _, seq := range st.Tracker.Seqs {
		records[seq]++
	}
	for i, seq := range st.PendingSeqs {
		p := st.Pending[i]
		slot := &ring[seq&(len(ring)-1)]
		switch {
		case seq < 0 || seq >= st.Step || seq < st.Step-len(ring) || slot.live:
			return nil, fmt.Errorf("core: pending transition %d outside the reward window at step %d", seq, st.Step)
		case p.Token < 0 || p.Token >= nTokens || p.Action < 0 || p.Action >= nActions ||
			(p.HasNext && (p.NextTok < 0 || p.NextTok >= nTokens)):
			return nil, fmt.Errorf("core: pending transition %d references a missing token or action", seq)
		case p.NP && p.Outstanding != 0, !p.NP && (p.Outstanding < 1 || records[seq] != p.Outstanding):
			return nil, fmt.Errorf("core: pending transition %d has %d outstanding lines, tracker holds %d", seq, p.Outstanding, records[seq])
		}
		delete(records, seq)
		*slot = tabTransition{
			seq: seq, live: true,
			token: int32(p.Token), action: int32(p.Action), np: p.NP,
			nextTok: int32(p.NextTok), hasNext: p.HasNext,
			outstanding: int32(p.Outstanding), acc: p.Acc,
		}
	}
	if len(records) != 0 {
		return nil, fmt.Errorf("core: reward tracker holds records of %d unknown transitions", len(records))
	}
	return ring, nil
}

// loadMLPMatching decodes an MLP snapshot and verifies it matches
// want's architecture.
func loadMLPMatching(data []byte, want *nn.MLP) (*nn.MLP, error) {
	m, err := nn.LoadMLP(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	ws, gs := want.Sizes(), m.Sizes()
	if len(ws) != len(gs) {
		return nil, fmt.Errorf("core: model architecture %v, controller needs %v", gs, ws)
	}
	for i := range ws {
		if ws[i] != gs[i] {
			return nil, fmt.Errorf("core: model architecture %v, controller needs %v", gs, ws)
		}
	}
	return m, nil
}

// seqEntry is one entry of a per-transition map, listed in seq order
// in snapshots.
type seqEntry[V any] struct {
	Seq int
	V   V
}

func bySeq[V any](m map[int]V) []seqEntry[V] {
	out := make([]seqEntry[V], 0, len(m))
	for seq, v := range m {
		out = append(out, seqEntry[V]{seq, v})
	}
	slices.SortFunc(out, func(a, b seqEntry[V]) int { return a.Seq - b.Seq })
	return out
}

func fromSeq[V any](entries []seqEntry[V]) (map[int]V, error) {
	m := make(map[int]V, len(entries))
	for _, e := range entries {
		if _, dup := m[e.Seq]; dup {
			return nil, fmt.Errorf("core: repeated transition seq %d", e.Seq)
		}
		m[e.Seq] = e.V
	}
	return m, nil
}

func orZeros(v []uint64, n int) []uint64 {
	if v == nil {
		return make([]uint64, n)
	}
	return v
}
