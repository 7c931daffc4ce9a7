// Package core implements the paper's primary contribution: ReSemble,
// the reinforcement-learning ensemble prefetching framework (Section
// IV). It contains:
//
//   - observation collection and preprocessing (hash and norm, Eq 4–6);
//   - the replay memory with the lazy-sampling mechanism (Section IV-D);
//   - reward assignment from the prefetch-hit window W (Section IV-D2);
//   - the MLP-based DQN ensemble controller with policy/target networks
//     and the role-switch update (Section IV-C/IV-E, Algorithm 1);
//   - the tabular Q-learning variant with hash-compressed, tokenized
//     states (Section IV-F);
//   - the analytic model-size, latency and storage estimates of Tables
//     IV, VII and VIII.
//
// Both controllers implement sim.Source, so they plug into the
// simulator exactly like an individual prefetcher.
package core

import (
	"fmt"
	"math"

	"resemble/internal/mem"
	"resemble/internal/prefetch"
)

// Config holds the framework parameters. The defaults mirror the
// paper's Table III.
type Config struct {
	// HashBits is the fold-hash width used by the MLP preprocessing
	// (Table III: 16).
	HashBits uint
	// TableHashBits is the fold-hash width of the tabular variant
	// (Section V evaluates 4 and 8).
	TableHashBits uint
	// UsePC appends the (hashed) program counter to the state vector,
	// the ablation the paper studies in Table VI.
	UsePC bool

	// ReplayN is the replay-memory capacity (Table III: 2000).
	ReplayN int
	// Window is the prefetch reward window W (Table III: 256).
	Window int
	// Batch is the training batch size (Table III: 256).
	Batch int

	// EpsStart, EpsEnd and EpsDecay drive the decaying ε-greedy policy
	// (Table III: 0.95, 0.005, 80): ε = end + (start−end)·exp(−step/decay).
	EpsStart, EpsEnd, EpsDecay float64

	// PolicyInterval is I_p, the policy-net training interval
	// (Table III: 1); TargetInterval is I_t, the role-switch interval
	// (Table III: 20).
	PolicyInterval, TargetInterval int

	// Hidden is the MLP hidden-layer width (Table IV: H = 100).
	Hidden int
	// Gamma is the reward discount factor. Prefetch rewards are nearly
	// action-immediate (the next state barely depends on the chosen
	// suggestion), so a small discount trains far more stably than
	// Atari-style 0.99 — grid search lands at 0.3, consistent with the
	// paper obtaining its agent hyperparameters from grid search.
	Gamma float64
	// LR is the SGD learning rate of the policy net (MLP variant) or
	// the Q-table step size α (tabular variant).
	LR float64

	// Seed drives all stochastic choices (ε-greedy, replay sampling,
	// weight init) for reproducibility.
	Seed int64

	// FixedFrac enables the 16-bit fixed-point serving path when
	// positive: action selection runs on a Q(15-frac).frac snapshot of
	// the target network (the hardware representation of Table VIII),
	// refreshed at every role switch, while training stays in float64.
	// Valid values are 1..14 fractional bits; zero (the default) serves
	// from the float network. Table VIII's 16-bit budget corresponds to
	// frac = 10, which empirically keeps argmax agreement with the float
	// path above 99% (see TestQuantizedServingAgreement).
	FixedFrac uint

	// MaskFloor enables graceful degradation when positive: a prefetcher
	// whose resolved-prefetch accuracy stays below this floor for
	// MaskBadWindows consecutive evaluation windows is masked out of
	// action selection (both exploitation and exploration) until a
	// re-probe. Zero (the default) disables masking entirely and leaves
	// the controller's behavior bit-identical to earlier versions.
	MaskFloor float64
	// MaskWindow is the evaluation window length in accesses
	// (default 2048 when masking is enabled).
	MaskWindow int
	// MaskBadWindows is the number of consecutive below-floor windows
	// before an arm is masked (default 2).
	MaskBadWindows int
	// MaskMinSamples is the minimum number of resolved prefetches in a
	// window for the arm to be judged at all (default 16); quiet arms are
	// left alone.
	MaskMinSamples int
	// MaskReprobe is the number of accesses a masked arm stays masked
	// before it is given another chance (default 8×MaskWindow). Permanent
	// faults re-mask quickly after the probe; transient ones recover.
	MaskReprobe int
}

// DefaultConfig returns the paper's Table III configuration.
func DefaultConfig() Config {
	return Config{
		HashBits:       16,
		TableHashBits:  8,
		ReplayN:        2000,
		Window:         256,
		Batch:          256,
		EpsStart:       0.95,
		EpsEnd:         0.005,
		EpsDecay:       80,
		PolicyInterval: 1,
		TargetInterval: 20,
		Hidden:         100,
		Gamma:          0.3,
		LR:             0.1,
		Seed:           1,
	}
}

// WithMasking returns c with graceful degradation on at the operating
// point the robustness fault matrix evaluates and the service serves:
// a 0.2 accuracy floor over 1,024-access windows, two bad windows to
// mask, 16 resolved prefetches to judge an arm, and a re-probe every
// 16K accesses.
func (c Config) WithMasking() Config {
	c.MaskFloor = 0.2
	c.MaskWindow = 1024
	c.MaskBadWindows = 2
	c.MaskMinSamples = 16
	c.MaskReprobe = 16 * 1024
	return c
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.HashBits == 0 || c.HashBits > 64 {
		return fmt.Errorf("core: hash bits %d out of range", c.HashBits)
	}
	if c.TableHashBits == 0 || c.TableHashBits > 16 {
		return fmt.Errorf("core: table hash bits %d out of range", c.TableHashBits)
	}
	if c.ReplayN <= 0 || c.Window <= 0 || c.Batch <= 0 {
		return fmt.Errorf("core: replay/window/batch must be positive")
	}
	if c.PolicyInterval <= 0 || c.TargetInterval <= 0 {
		return fmt.Errorf("core: update intervals must be positive")
	}
	if c.PolicyInterval > c.TargetInterval {
		return fmt.Errorf("core: policy interval I_p must not exceed target interval I_t")
	}
	if c.Hidden <= 0 {
		return fmt.Errorf("core: hidden width must be positive")
	}
	if c.Gamma < 0 || c.Gamma >= 1 {
		return fmt.Errorf("core: gamma must be in [0,1)")
	}
	if c.EpsDecay <= 0 {
		return fmt.Errorf("core: epsilon decay must be positive")
	}
	if c.MaskFloor < 0 || c.MaskFloor > 1 {
		return fmt.Errorf("core: mask floor must be in [0,1]")
	}
	if c.MaskWindow < 0 || c.MaskBadWindows < 0 || c.MaskMinSamples < 0 || c.MaskReprobe < 0 {
		return fmt.Errorf("core: mask parameters must not be negative")
	}
	if c.FixedFrac > 14 {
		return fmt.Errorf("core: fixed-point fractional bits %d out of range [0,14]", c.FixedFrac)
	}
	return nil
}

// epsilon returns the exploration rate at a step count.
func (c Config) epsilon(step int) float64 {
	return c.EpsEnd + (c.EpsStart-c.EpsEnd)*expNeg(float64(step)/c.EpsDecay)
}

// Observation is one prefetcher's top suggestion for the current
// access (Equation 4's p_n(t)); Valid is false when the prefetcher had
// nothing to suggest (zero padding). All carries the prefetcher's full
// suggestion list for the access: the agent's action selects a
// prefetcher via its top suggestion, and the selected prefetcher then
// issues at its native degree (so ensemble and individual baselines are
// degree-fair). All aliases the prefetcher's scratch buffer and is only
// valid for the current access.
type Observation struct {
	Line    mem.Line
	Valid   bool
	Spatial bool
	All     []prefetch.Suggestion
}

// CollectObservations drives every prefetcher on the access and gathers
// their top suggestions, spatial predictions first (Equation 4's
// ordering). order[i] gives the index into prefetchers of observation
// i, so an action can be mapped back to its source.
func CollectObservations(prefetchers []prefetch.Prefetcher, a prefetch.AccessContext, obs []Observation, order []int) ([]Observation, []int) {
	obs = obs[:0]
	order = order[:0]
	// Spatial pass, then temporal pass, preserving configured order
	// within each class.
	for pass := 0; pass < 2; pass++ {
		wantSpatial := pass == 0
		for i, p := range prefetchers {
			if p.Spatial() != wantSpatial {
				continue
			}
			var o Observation
			o.Spatial = wantSpatial
			// Observe must be called exactly once per prefetcher per
			// access; the two-pass split only reorders collection, so
			// the call happens in the pass matching the prefetcher.
			all := p.Observe(a)
			if top, ok := prefetch.Top(all); ok {
				o.Line = top.Line
				o.Valid = true
				o.All = all
			}
			obs = append(obs, o)
			order = append(order, i)
		}
	}
	return obs, order
}

// StateVector preprocesses observations into the MLP input (Equations
// 5–6): spatial predictions become page-normalized absolute deltas,
// temporal predictions are hash-and-norm compressed; invalid slots are
// zero. When usePC is set, the hashed PC is appended.
func StateVector(dst []float64, obs []Observation, cur mem.Addr, pc uint64, hashBits uint, usePC bool) []float64 {
	dst = dst[:0]
	for _, o := range obs {
		if !o.Valid {
			dst = append(dst, 0)
			continue
		}
		if o.Spatial {
			// Spatial predictions are nominally within the page-sized
			// region (Eq 6 normalizes by 2^PAGE_BITS); anything beyond
			// saturates at 1 so a stray far prediction cannot blow up
			// the network input.
			delta := int64(mem.LineAddr(o.Line)) - int64(cur)
			v := float64(mem.Abs64(delta)) / float64(mem.PageSize)
			if v > 1 {
				v = 1
			}
			dst = append(dst, v)
		} else {
			dst = append(dst, float64(mem.FoldHash(mem.LineAddr(o.Line), hashBits))/float64(uint64(1)<<hashBits))
		}
	}
	if usePC {
		dst = append(dst, float64(mem.FoldHash(pc, hashBits))/float64(uint64(1)<<hashBits))
	}
	return dst
}

// TabularKey compresses observations into the tabular variant's state
// token source (Equation 12): every element is fold-hashed to bits bits
// and packed; invalid slots pack as zero. When usePC is set, the hashed
// PC contributes a final field. Packing more than 64 bits panics —
// configurations are static, so this is a programming error.
func TabularKey(obs []Observation, cur mem.Addr, pc uint64, bits uint, usePC bool) uint64 {
	fields := len(obs)
	if usePC {
		fields++
	}
	if uint(fields)*bits > 64 {
		panic(fmt.Sprintf("core: tabular key needs %d bits, max 64", uint(fields)*bits))
	}
	var key uint64
	for _, o := range obs {
		key <<= bits
		if !o.Valid {
			continue
		}
		if o.Spatial {
			delta := int64(mem.LineAddr(o.Line)) - int64(cur)
			key |= mem.FoldHashSigned(delta, bits)
		} else {
			key |= mem.FoldHash(mem.LineAddr(o.Line), bits)
		}
	}
	if usePC {
		key = key<<bits | mem.FoldHash(pc, bits)
	}
	return key
}

func expNeg(x float64) float64 {
	if x < 0 {
		x = 0
	}
	return math.Exp(-x)
}
