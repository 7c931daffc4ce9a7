// Package sbp implements SBP(E), the paper's extended Sandbox
// Prefetcher baseline (Section V-C1; Pugsley et al., HPCA 2014). Every
// input prefetcher runs in a sandbox: its suggestions go into a regular
// history buffer (the paper's extension replaces the original's Bloom
// filter with an exact buffer of size 256) instead of the cache, and a
// suggestion scores a hit when a later demand access matches it. At the
// end of each evaluation period the prefetcher with the highest sandbox
// accuracy becomes the active prefetcher for the next period — the
// greedy strategy whose response lag ReSemble is designed to beat.
package sbp

import (
	"resemble/internal/flatmap"
	"resemble/internal/mem"
	"resemble/internal/prefetch"
	"resemble/internal/telemetry"
)

// Config parameterizes SBP(E).
type Config struct {
	// BufferSize is the per-prefetcher suggestion history buffer
	// (paper: 256, matching ReSemble's training batch).
	BufferSize int
	// Period is the evaluation period in accesses after which the
	// active prefetcher is re-selected (defaults to BufferSize).
	Period int
	// MinAccuracy disables prefetching for a period when even the best
	// sandbox accuracy is below it.
	MinAccuracy float64
}

func (c *Config) setDefaults() {
	if c.BufferSize == 0 {
		c.BufferSize = 256
	}
	if c.Period == 0 {
		c.Period = c.BufferSize
	}
	if c.MinAccuracy == 0 {
		c.MinAccuracy = 0.05
	}
}

// sandbox tracks one prefetcher's recent suggestions and their
// outcomes. The history is a multiset: buf keeps the suggestions in
// arrival order (duplicates included) and set counts each line's
// occurrences in it.
type sandbox struct {
	buf    flatmap.Queue[mem.Line]
	set    *flatmap.Map // line -> occurrences in buf
	issues int          // suggestions made this period
	hits   int          // suggestions matched this period

	// Cumulative counts across periods, for telemetry.
	cumIssues uint64
	cumHits   uint64
}

func newSandbox(capacity int) *sandbox {
	s := &sandbox{set: flatmap.New(capacity)}
	s.buf.Reset(2 * capacity)
	return s
}

// add records a suggestion, first dropping the oldest one when the
// history is full (so set never holds more than capacity lines).
func (s *sandbox) add(line mem.Line, capacity int) {
	s.issues++
	s.cumIssues++
	if s.buf.Len() == capacity {
		old := s.buf.Pop()
		if n, _ := s.set.Get(old); n <= 1 {
			s.set.Delete(old)
		} else {
			s.set.Set(old, n-1)
		}
	}
	s.buf.Push(line)
	n, _ := s.set.Get(line)
	s.set.Set(line, n+1)
}

// match scores a hit when line is among the buffered suggestions. Like
// the original's Bloom-filter test this is pure membership — entries
// are not consumed, they age out of the FIFO.
func (s *sandbox) match(line mem.Line) {
	if s.set.Contains(line) {
		s.hits++
		s.cumHits++
	}
}

func (s *sandbox) accuracy() float64 {
	if s.issues == 0 {
		return 0
	}
	return float64(s.hits) / float64(s.issues)
}

func (s *sandbox) resetPeriod() { s.issues, s.hits = 0, 0 }

// Controller is the SBP(E) ensemble controller; it implements
// sim.Source.
type Controller struct {
	cfg         Config
	prefetchers []prefetch.Prefetcher
	boxes       []*sandbox

	active    int // index of the active prefetcher; -1 means none
	accessNum int

	out      []mem.Line
	selected []int8 // active prefetcher per access, for diagnostics

	// Telemetry (nil-safe handles; counts always maintained).
	selCounts   []uint64 // per prefetcher + "none" slot, cumulative
	issuedPerP  []uint64 // lines issued while each prefetcher was active
	tel         *telemetry.Collector
	cReselects  *telemetry.Counter
	cSwitchover *telemetry.Counter
}

// AttachTelemetry implements telemetry.Attachable.
func (c *Controller) AttachTelemetry(t *telemetry.Collector) {
	c.tel = t
	r := t.Registry()
	c.cReselects = r.Counter("sbp.reselections")
	c.cSwitchover = r.Counter("sbp.active_switches")
}

// TelemetryStats implements telemetry.ControllerProbe. SBP(E) has no
// reward or Q-function; ArmUseful/ArmUseless report cumulative sandbox
// hits and unmatched sandbox suggestions, which is the evidence the
// greedy selection acts on.
func (c *Controller) TelemetryStats() telemetry.ControllerStats {
	names := make([]string, 0, len(c.prefetchers)+1)
	for _, p := range c.prefetchers {
		names = append(names, p.Name())
	}
	names = append(names, "none")
	useful := make([]uint64, len(c.prefetchers)+1)
	useless := make([]uint64, len(c.prefetchers)+1)
	for i, box := range c.boxes {
		useful[i] = box.cumHits
		useless[i] = box.cumIssues - box.cumHits
	}
	return telemetry.ControllerStats{
		Steps:        c.accessNum,
		ActionNames:  names,
		ActionCounts: c.selCounts,
		ArmIssued:    c.issuedPerP,
		ArmUseful:    useful,
		ArmUseless:   useless,
	}
}

// New builds the SBP(E) controller. It panics on an empty prefetcher
// list.
func New(cfg Config, prefetchers []prefetch.Prefetcher) *Controller {
	if len(prefetchers) == 0 {
		panic("sbp: controller needs at least one prefetcher")
	}
	cfg.setDefaults()
	c := &Controller{cfg: cfg, prefetchers: prefetchers}
	c.initState()
	return c
}

func (c *Controller) initState() {
	c.boxes = make([]*sandbox, len(c.prefetchers))
	for i := range c.boxes {
		c.boxes[i] = newSandbox(c.cfg.BufferSize)
	}
	c.active = -1
	c.accessNum = 0
	c.selected = c.selected[:0]
	c.selCounts = make([]uint64, len(c.prefetchers)+1)
	c.issuedPerP = make([]uint64, len(c.prefetchers)+1)
}

// Name implements sim.Source.
func (c *Controller) Name() string { return "sbp-e" }

// Reset implements sim.Source.
func (c *Controller) Reset() {
	for _, p := range c.prefetchers {
		p.Reset()
	}
	c.initState()
}

// Active returns the currently selected prefetcher index (-1 when
// prefetching is disabled).
func (c *Controller) Active() int { return c.active }

// SelectedSeries returns the active prefetcher per access (aliases
// internal state; -1 entries are stored as the prefetcher count).
func (c *Controller) SelectedSeries() []int8 { return c.selected }

// OnAccess implements sim.Source.
func (c *Controller) OnAccess(a prefetch.AccessContext) []mem.Line {
	c.accessNum++
	c.out = c.out[:0]

	for i, p := range c.prefetchers {
		box := c.boxes[i]
		// Sandbox scoring happens before adding this access's own
		// suggestions (a suggestion cannot match its trigger).
		box.match(a.Line)
		all := p.Observe(a)
		if top, ok := prefetch.Top(all); ok {
			box.add(top.Line, c.cfg.BufferSize)
			if i == c.active {
				// The active prefetcher issues at its native degree.
				for _, s := range all {
					c.out = append(c.out, s.Line)
				}
				c.issuedPerP[i] += uint64(len(all))
			}
		}
	}

	if c.accessNum%c.cfg.Period == 0 {
		c.reselect()
	}
	sel := int8(len(c.prefetchers))
	if c.active >= 0 {
		sel = int8(c.active)
	}
	c.selected = append(c.selected, sel)
	c.selCounts[sel]++
	return c.out
}

// reselect picks the sandbox leader for the next period. The incumbent
// keeps its slot unless a challenger STRICTLY surpasses it — the
// paper's own description of SBP ("a picked prefetcher works for a
// period until the average performance of another prefetcher surpasses
// it"). Without this hysteresis, equally-scoring prefetchers would
// alternate every period, which both misrepresents the design and
// accidentally unions their coverage.
func (c *Controller) reselect() {
	incumbentAcc := -1.0
	if c.active >= 0 {
		incumbentAcc = c.boxes[c.active].accuracy()
	}
	best, bestAcc := c.active, incumbentAcc
	for i, box := range c.boxes {
		if i == c.active {
			continue
		}
		if acc := box.accuracy(); acc > bestAcc {
			best, bestAcc = i, acc
		}
	}
	if bestAcc < c.cfg.MinAccuracy {
		best = -1
	}
	c.cReselects.Inc()
	if best != c.active {
		c.cSwitchover.Inc()
		if c.tel != nil {
			act := int8(len(c.prefetchers)) // "none" slot
			if best >= 0 {
				act = int8(best)
			}
			c.tel.Trace(telemetry.Event{Seq: uint64(c.accessNum), Kind: telemetry.KindAction, Action: act})
		}
	}
	c.active = best
	for _, box := range c.boxes {
		box.resetPeriod()
	}
}
