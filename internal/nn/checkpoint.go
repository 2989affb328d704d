package nn

import "repro/internal/tensor"

// Checkpoint wraps a layer with activation checkpointing (Chen et al.,
// paper §6 lists it as combinable with pipeline parallelism): Forward keeps
// only the input; Backward recomputes the inner forward to rebuild the
// saved activations before differentiating. Memory per in-flight
// micro-batch drops from the layer's full activation set to one boundary
// tensor, at the price of one extra forward pass.
type Checkpoint struct {
	Inner Layer
	ws    *tensor.Workspace
}

// NewCheckpoint wraps inner with recompute-in-backward semantics.
func NewCheckpoint(inner Layer) *Checkpoint { return &Checkpoint{Inner: inner} }

type checkpointCtx struct{ x *tensor.Tensor }

// Forward runs the inner layer but discards its context, keeping only x.
func (c *Checkpoint) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	y, inner := c.Inner.Forward(x)
	discard(c.Inner, inner)
	return y, &checkpointCtx{x: x}
}

// Backward recomputes the inner forward from the stored input, then runs
// the inner backward with the fresh context.
func (c *Checkpoint) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	cc := ctx.(*checkpointCtx)
	y, inner := c.Inner.Forward(cc.x)
	c.ws.Put(y)
	return c.Inner.Backward(inner, dy)
}

// Params returns the inner layer's parameters.
func (c *Checkpoint) Params() []*Param { return c.Inner.Params() }

func (c *Checkpoint) setWorkspace(ws *tensor.Workspace) {
	c.ws = ws
	SetWorkspace(c.Inner, ws)
}

// CheckpointModel wraps every unit of a model in Checkpoint (the common
// "checkpoint each transformer block" configuration).
func CheckpointModel(m *Model) *Model {
	units := make([]Layer, len(m.Units))
	for i, u := range m.Units {
		units[i] = NewCheckpoint(u)
	}
	return &Model{Config: m.Config, Units: units}
}
