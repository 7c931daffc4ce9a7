// Package bo implements the Best-Offset prefetcher (Pierre Michaud,
// "Best-Offset Hardware Prefetching", HPCA 2016), one of the two
// spatial prefetchers used as ReSemble input (paper Table II: 1K-entry
// RR table, 1 Kb prefetch bits, 4 KB budget).
//
// BO learns a single best prefetch offset D by scoring candidate
// offsets against a Recent-Requests (RR) table: offset d scores a point
// whenever the current access X finds X-d in the RR table, meaning a
// prefetch issued with offset d at time of X-d would have been timely.
// Learning proceeds in rounds over the offset list; at the end of a
// round (or early, when a score saturates) the best-scoring offset
// becomes the prefetch offset for the next round.
package bo

import (
	"resemble/internal/mem"
	"resemble/internal/prefetch"
)

// Config parameterizes the prefetcher.
type Config struct {
	// Offsets is the candidate offset list (in cache lines). Defaults to
	// Michaud's list restricted to |d| <= 63 so prefetches stay in-page
	// most of the time, plus a few negative offsets.
	Offsets []int
	// RRSize is the number of entries in the recent-requests table
	// (direct-mapped). Paper budget: 1K entries.
	RRSize int
	// ScoreMax ends a learning round early when reached (default 31).
	ScoreMax int
	// BadScore disables prefetching when the winning score is below it
	// (default 1).
	BadScore int
	// RoundMax bounds the number of passes over the offset list per
	// learning phase (default 50; the original's ROUND_MAX is 100).
	RoundMax int
	// FillDelay models the original's fill-time RR insertion: a trained
	// line enters the RR table only FillDelay training events later,
	// approximating the memory latency between a request and its fill.
	// This is what makes BO prefer *timely* offsets (large enough to
	// cover the latency) over merely correct ones. Default 8 trains;
	// set negative for immediate insertion.
	FillDelay int
}

func (c *Config) setDefaults() {
	if len(c.Offsets) == 0 {
		// Michaud's offsets are {1..256} with prime factors 2,3,5 only;
		// restricted here to ±63 lines, covering in-page distances.
		pos := []int{1, 2, 3, 4, 5, 6, 8, 9, 10, 12, 15, 16, 18, 20, 24, 25, 27, 30, 32, 36, 40, 45, 48, 50, 54, 60}
		c.Offsets = append(c.Offsets, pos...)
		c.Offsets = append(c.Offsets, -1, -2, -3, -4, -6, -8)
	}
	if c.RRSize == 0 {
		c.RRSize = 1024
	}
	if c.ScoreMax == 0 {
		c.ScoreMax = 31
	}
	if c.BadScore == 0 {
		c.BadScore = 1
	}
	if c.RoundMax == 0 {
		c.RoundMax = 50
	}
	if c.FillDelay == 0 {
		c.FillDelay = 8
	}
	if c.FillDelay < 0 {
		c.FillDelay = 0
	}
}

// Prefetcher is the Best-Offset prefetcher.
type Prefetcher struct {
	cfg Config

	rr []mem.Line // direct-mapped recent-requests table

	scores     []int
	testIdx    int        // next offset index to test
	passes     int        // completed passes over the offset list this phase
	bestD      int        // current prefetch offset; 0 means disabled
	fillQ      []mem.Line // head-indexed fill-delay queue
	fillHead   int
	out        [1]prefetch.Suggestion
	sugBuf     []prefetch.Suggestion
	confidence float64
}

// New builds a BO prefetcher. A zero Config selects the defaults.
func New(cfg Config) *Prefetcher {
	cfg.setDefaults()
	p := &Prefetcher{cfg: cfg}
	p.Reset()
	return p
}

// Name implements prefetch.Prefetcher.
func (p *Prefetcher) Name() string { return "bo" }

// Spatial implements prefetch.Prefetcher: BO predicts within a page.
func (p *Prefetcher) Spatial() bool { return true }

// Reset implements prefetch.Prefetcher. The tables are cleared in
// place, so a reused prefetcher does not allocate.
func (p *Prefetcher) Reset() {
	if p.rr == nil {
		p.rr = make([]mem.Line, p.cfg.RRSize)
		p.scores = make([]int, len(p.cfg.Offsets))
	}
	for i := range p.rr {
		p.rr[i] = ^mem.Line(0)
	}
	clear(p.scores)
	p.testIdx = 0
	p.passes = 0
	p.bestD = 1 // start with next-line until learning says otherwise
	p.fillQ = p.fillQ[:0]
	p.fillHead = 0
	p.confidence = 0.5
}

func (p *Prefetcher) rrIndex(line mem.Line) int {
	h := mem.FoldHash(line, 20)
	return int(h % uint64(len(p.rr)))
}

func (p *Prefetcher) rrInsert(line mem.Line) { p.rr[p.rrIndex(line)] = line }

func (p *Prefetcher) rrHit(line mem.Line) bool { return p.rr[p.rrIndex(line)] == line }

// Observe implements prefetch.Prefetcher. BO trains on demand misses
// and on first-use prefetch hits, as the original does.
func (p *Prefetcher) Observe(a prefetch.AccessContext) []prefetch.Suggestion {
	train := !a.Hit || a.PrefetchHit
	if train {
		p.learn(a.Line)
		// Fill-delay model: the accessed line enters the RR table only
		// FillDelay trains later, so offset d scores when X-d was
		// demanded long enough ago for its prefetch to have completed —
		// this biases selection toward timely offsets.
		if p.fillHead > 0 && p.fillHead >= len(p.fillQ)-p.fillHead {
			n := copy(p.fillQ, p.fillQ[p.fillHead:])
			p.fillQ = p.fillQ[:n]
			p.fillHead = 0
		}
		p.fillQ = append(p.fillQ, a.Line)
		if len(p.fillQ)-p.fillHead > p.cfg.FillDelay {
			p.rrInsert(p.fillQ[p.fillHead])
			p.fillHead++
		}
	}
	if p.bestD == 0 {
		return nil
	}
	cand := int64(a.Line) + int64(p.bestD)
	if cand < 0 {
		return nil
	}
	line := mem.Line(cand)
	// BO's prediction is constrained within the page.
	if !mem.SamePage(mem.LineAddr(line), a.Addr) {
		return nil
	}
	p.out[0] = prefetch.Suggestion{Line: line, Confidence: p.confidence}
	p.sugBuf = p.out[:1]
	return p.sugBuf
}

// learn advances the offset-scoring state machine by one trigger.
// Between commits only the tested offset's score grows, by at most one
// per trigger, and every score starts below ScoreMax (LoadState rejects
// snapshots that break this), so the tested score alone tells whether
// a score has saturated.
func (p *Prefetcher) learn(line mem.Line) {
	i := p.testIdx
	base := int64(line) - int64(p.cfg.Offsets[i])
	if base >= 0 && p.rrHit(mem.Line(base)) {
		p.scores[i]++
	}
	endPhase := p.scores[i] >= p.cfg.ScoreMax
	p.testIdx++
	if p.testIdx == len(p.cfg.Offsets) {
		p.testIdx = 0
		p.passes++
		if p.passes >= p.cfg.RoundMax {
			endPhase = true
		}
	}
	if endPhase {
		p.commitRound()
	}
}

func (p *Prefetcher) commitRound() {
	bi, best := 0, -1
	for i, s := range p.scores {
		if s > best {
			bi, best = i, s
		}
	}
	if best < p.cfg.BadScore {
		p.bestD = 0 // disable prefetching: no offset is working
		p.confidence = 0
	} else {
		p.bestD = p.cfg.Offsets[bi]
		p.confidence = float64(best) / float64(p.cfg.ScoreMax)
		if p.confidence > 1 {
			p.confidence = 1
		}
	}
	for i := range p.scores {
		p.scores[i] = 0
	}
	p.testIdx = 0
	p.passes = 0
}

// BestOffset exposes the currently selected offset (0 when disabled);
// used by tests and the experiments' diagnostics.
func (p *Prefetcher) BestOffset() int { return p.bestD }
