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

// Cost is the timing oracle a simulator needs, for the paper's uniform-
// stage model: each of the schedule's S stages carries Layers/S layers and
// a backward costs twice its forward. New precomputes the work in one O(P²) block — the
// stage's forward FLOPs, each device's FLOP rate and a per-link
// communication table — so a lookup is one division, fl/flops[device],
// exactly the one the FLOP formulas end in.
type Cost struct {
	W Workload
	C *cluster.Cluster

	// fl is one stage's forward FLOPs, flops[d] the rate of each of the p
	// devices the schedule uses, comm[src*p+dst] one boundary transfer.
	p     int
	fl    float64
	flops []float64
	comm  []float64
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
	p := sc.P
	c := &Cost{W: w, C: cl, p: p}
	c.fl = float64(w.Model.Layers) / float64(sc.S) * LayerForwardFLOPs(w.Model, w.MicroRows)
	block := make([]float64, p+p*p)
	c.flops, c.comm = block[:p:p], block[p:]
	act := ActivationBytes(w.Model, w.MicroRows)
	for d := 0; d < p; d++ {
		c.flops[d] = cl.Flops(d)
		for dst := 0; dst < p; dst++ {
			c.comm[d*p+dst] = cl.CommTime(d, dst, act)
		}
	}
	return c, nil
}

// ForwardTime returns the stage forward time on device d: the stage's
// FLOPs over the device's rate, from the built table for the schedule's
// devices and from the cluster beyond them.
func (c *Cost) ForwardTime(d, stage int) float64 {
	if d < c.p {
		return c.fl / c.flops[d]
	}
	return c.fl / c.C.Flops(d)
}

// BackwardTime returns the stage backward time on device d: twice the
// forward, as the paper draws it.
func (c *Cost) BackwardTime(d, stage int) float64 {
	return 2 * c.ForwardTime(d, stage)
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

// CommTime returns Tc for distinct devices.
func (u Uniform) CommTime(src, dst int) float64 {
	if src == dst {
		return 0
	}
	return u.Tc
}
