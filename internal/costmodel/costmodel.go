// Package costmodel converts a transformer configuration plus a cluster
// into the per-stage compute times and per-boundary transfer sizes the
// simulator consumes. The FLOP formulas are the standard dense-transformer
// counts; only ratios matter for schedule shape, absolute seconds give the
// throughput scale.
package costmodel

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/sched"
)

// Workload fixes the per-micro-batch tensor shape.
type Workload struct {
	Model     nn.Config
	MicroRows int // sequences per micro-batch
}

// LayerForwardFLOPs returns the forward FLOPs of one transformer block for
// rows sequences: 24·b·s·h² for the four matmuls plus 4·b·s²·h attention.
func LayerForwardFLOPs(cfg nn.Config, rows int) float64 {
	b, s, h := float64(rows), float64(cfg.SeqLen), float64(cfg.Hidden)
	return 24*b*s*h*h + 4*b*s*s*h
}

// ActivationBytes is the size of the boundary tensor [rows, seq, hidden]
// in half precision — what one pipeline P2P transfer carries.
func ActivationBytes(cfg nn.Config, rows int) float64 {
	return float64(rows) * float64(cfg.SeqLen) * float64(cfg.Hidden) * 2
}

// Cost is the timing oracle a simulator needs. Construction (New)
// precomputes the per-stage work in one O(S + P²) block — each stage's
// forward FLOPs, each device's FLOP rate and a per-link communication
// table — so a lookup is one division, fl[stage]/flops[device], exactly the
// one the FLOP formulas end in. Toggling the public knobs (Heterogeneous,
// Shares, BackwardRatio) after New is still supported: BackwardRatio is
// read on every lookup, and the stage FLOPs are rebuilt transparently on
// the next lookup after Heterogeneous or Shares changed.
type Cost struct {
	W Workload
	C *cluster.Cluster
	S int // pipeline stages the model is cut into

	// BackwardRatio is Tb/Tf; the paper draws backwards at 2× forward.
	BackwardRatio float64

	// Heterogeneous adds the embedding lookup to stage 0 and the LM-head
	// projection + softmax to stage S−1, making boundary stages heavier —
	// the imbalance real frameworks see. Off by default: the paper's
	// analysis (and our published tables) assume uniform stages.
	Heterogeneous bool

	// Shares, when non-nil (length S), multiplies each stage's fractional
	// layer count: stage s carries Layers/S · Shares[s] layers instead of
	// the uniform Layers/S. SpeedBalancedShares builds shares proportional
	// to the hosting device's measured speed, equalizing stage times on a
	// heterogeneous cluster — the "balance stage loads by measured speed,
	// not device count" placement knob. Opt-in and deliberately OUTSIDE
	// the sweep path: LowerBound's certificates assume uniform stages, so
	// a Cost with Shares set must not feed a bound-and-prune sweep.
	Shares []float64

	// Per-stage work built by Recalc, in one block: fl[stage] is the
	// stage's forward FLOPs, flops[d] the rate of each of the p devices the
	// schedule uses, comm[src*p+dst] one boundary transfer. builtHet and
	// builtShares record the knob values fl encodes so a post-construction
	// knob flip invalidates it (rebuilds are not safe concurrently with
	// lookups — freeze the knobs before sharing a Cost).
	p           int
	fl, flops   []float64
	comm        []float64
	builtHet    bool
	builtShares []float64
}

// EmbedFLOPs is the forward cost of the embedding lookup (memory-bound;
// modelled as one read-modify per element).
func EmbedFLOPs(cfg nn.Config, rows int) float64 {
	return 2 * float64(rows) * float64(cfg.SeqLen) * float64(cfg.Hidden)
}

// HeadFLOPs is the LM-head projection cost: 2·b·s·h·V.
func HeadFLOPs(cfg nn.Config, rows int) float64 {
	return 2 * float64(rows) * float64(cfg.SeqLen) * float64(cfg.Hidden) * float64(cfg.Vocab)
}

// New builds a Cost for schedule sc over cl. It allows S to exceed the
// layer count: the simulator assigns fractional layers per stage, matching
// the paper's assumption of arbitrarily divisible stage work (the real
// runtime, by contrast, requires S ≤ Layers+2).
func New(w Workload, cl *cluster.Cluster, sc *sched.Schedule) (*Cost, error) {
	if cl.N() < sc.P {
		return nil, fmt.Errorf("costmodel: cluster has %d devices, schedule needs %d", cl.N(), sc.P)
	}
	if w.MicroRows <= 0 {
		return nil, fmt.Errorf("costmodel: MicroRows must be positive")
	}
	c := &Cost{W: w, C: cl, S: sc.S, BackwardRatio: 2, p: sc.P}
	c.Recalc()
	return c, nil
}

// Recalc (re)builds the per-stage work from the current knob settings.
// New calls it once; lookups call it again automatically if a knob changed
// since the last build.
func (c *Cost) Recalc() {
	block := make([]float64, c.S+c.p+c.p*c.p)
	c.fl, c.flops, c.comm = block[:c.S:c.S], block[c.S:c.S+c.p:c.S+c.p], block[c.S+c.p:]
	for s := range c.fl {
		c.fl[s] = c.stageFLOPs(s)
	}
	act := ActivationBytes(c.W.Model, c.W.MicroRows)
	for d := 0; d < c.p; d++ {
		c.flops[d] = c.C.Flops(d)
		for dst := 0; dst < c.p; dst++ {
			c.comm[d*c.p+dst] = c.C.CommTime(d, dst, act)
		}
	}
	c.builtHet = c.Heterogeneous
	c.builtShares = c.Shares
}

// sameShares reports whether two share slices are the identical knob
// setting: same slice (length + backing array) or both absent. Callers
// that mutate a shares slice in place must reassign a fresh slice for the
// staleness check to notice — the documented Recalc contract.
func sameShares(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	return len(a) == 0 || &a[0] == &b[0]
}

// stale reports whether the stage FLOPs no longer reflect the public knobs
// (or were never built, for a hand-assembled zero-value Cost).
func (c *Cost) stale() bool {
	return c.fl == nil || c.builtHet != c.Heterogeneous || !sameShares(c.builtShares, c.Shares)
}

// layersPerStage is the fractional layer count of one stage: the uniform
// Layers/S share scaled by the stage's Shares multiplier when set.
func (c *Cost) layersPerStage(stage int) float64 {
	share := float64(c.W.Model.Layers) / float64(c.S)
	if stage < len(c.Shares) {
		share *= c.Shares[stage]
	}
	return share
}

// stageFLOPs derives one stage's forward FLOPs from the formulas.
func (c *Cost) stageFLOPs(stage int) float64 {
	fl := c.layersPerStage(stage) * LayerForwardFLOPs(c.W.Model, c.W.MicroRows)
	if c.Heterogeneous {
		if stage == 0 {
			fl += EmbedFLOPs(c.W.Model, c.W.MicroRows)
		}
		if stage == c.S-1 {
			fl += HeadFLOPs(c.W.Model, c.W.MicroRows)
		}
	}
	return fl
}

// ForwardTime returns the stage forward time on device d: the stage's
// FLOPs over the device's rate, from the built block for the schedule's
// devices and stages and from the formulas beyond them.
func (c *Cost) ForwardTime(d, stage int) float64 {
	if d < c.p && stage < c.S {
		if c.stale() {
			c.Recalc()
		}
		return c.fl[stage] / c.flops[d]
	}
	return c.stageFLOPs(stage) / c.C.Flops(d)
}

// BackwardTime returns the stage backward time on device d.
func (c *Cost) BackwardTime(d, stage int) float64 {
	return c.BackwardRatio * c.ForwardTime(d, stage)
}

// BackwardInputTime returns the input-gradient half of the stage backward
// time on device d — the critical-path half a zero-bubble split scheme
// prices separately: half the fused time. BackwardInputTime +
// BackwardWeightTime equals BackwardTime exactly, so a split scheme's
// total compute equals the fused scheme's.
func (c *Cost) BackwardInputTime(d, stage int) float64 {
	return c.BackwardTime(d, stage) / 2
}

// BackwardWeightTime returns the weight-gradient half of the stage backward
// time on device d — the dependency-free bubble-filler half. It is the
// exact remainder BackwardTime − BackwardInputTime, so the split halves
// always sum to the fused duration bit-for-bit.
func (c *Cost) BackwardWeightTime(d, stage int) float64 {
	b := c.BackwardTime(d, stage)
	return b - b/2
}

// CommTime returns the P2P transfer time of one boundary tensor (table
// lookup for the schedule's devices, the cluster's formula beyond them).
func (c *Cost) CommTime(src, dst int) float64 {
	if src < c.p && dst < c.p {
		return c.comm[src*c.p+dst]
	}
	return c.C.CommTime(src, dst, ActivationBytes(c.W.Model, c.W.MicroRows))
}

// Uniform is a synthetic cost oracle with fixed tf/tb/tc, used by unit
// tests and the theoretical-shape benchmarks (Tc=0, Tb=2Tf reproduces the
// paper's Fig 1 assumptions).
type Uniform struct {
	Tf, Tb, Tc float64
}

// ForwardTime returns Tf.
func (u Uniform) ForwardTime(d, stage int) float64 { return u.Tf }

// BackwardTime returns Tb.
func (u Uniform) BackwardTime(d, stage int) float64 { return u.Tb }

// BackwardInputTime returns the input-gradient half of Tb.
func (u Uniform) BackwardInputTime(d, stage int) float64 { return u.Tb / 2 }

// BackwardWeightTime returns the weight-gradient half of Tb — the exact
// remainder, so the split halves sum to Tb bit-for-bit.
func (u Uniform) BackwardWeightTime(d, stage int) float64 { return u.Tb - u.Tb/2 }

// CommTime returns Tc for distinct devices.
func (u Uniform) CommTime(src, dst int) float64 {
	if src == dst {
		return 0
	}
	return u.Tc
}
