// Package nn implements transformer building blocks with hand-written
// forward and backward passes. Each Forward returns an opaque context of
// saved activations so a layer can serve many in-flight micro-batches
// concurrently — the property pipeline parallelism depends on.
//
// The explicit backwards are checked against finite differences in the
// tests, and the runtime's tests compare whole pipelines with a serial
// single-worker reference.
package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Param is a trainable tensor together with its gradient accumulator.
type Param struct {
	Name string
	W    *tensor.Tensor
	G    *tensor.Tensor
}

func newParam(name string, w *tensor.Tensor) *Param {
	return &Param{Name: name, W: w, G: tensor.New(w.Shape...)}
}

// Ctx carries a layer's saved activations between Forward and Backward for
// one micro-batch. Contexts are never shared across micro-batches.
type Ctx interface{}

// Layer is a differentiable stage component. Forward must not mutate shared
// state other than reading parameters; Backward accumulates parameter
// gradients into Param.G and returns the input gradient.
type Layer interface {
	Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx)
	Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor
	Params() []*Param
}

// ---------------------------------------------------------------- Linear --

// Linear is the affine map y = x·W + b with W [in,out].
type Linear struct {
	In, Out int
	Weight  *Param
	Bias    *Param
	ws      *tensor.Workspace
}

// NewLinear builds a Linear layer with N(0, 0.02²)-style scaled init.
func NewLinear(r *tensor.RNG, in, out int) *Linear {
	std := 1 / math.Sqrt(float64(in))
	return &Linear{
		In:     in,
		Out:    out,
		Weight: newParam(fmt.Sprintf("linear%dx%d.w", in, out), tensor.Randn(r, std, in, out)),
		Bias:   newParam(fmt.Sprintf("linear%dx%d.b", in, out), tensor.New(out)),
	}
}

type linearCtx struct{ x *tensor.Tensor }

// Forward computes x·W + b.
func (l *Linear) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	y := tensor.MatMulInto(l.ws.GetCols(x, l.Out), x, l.Weight.W)
	tensor.AddInPlace(y, l.Bias.W)
	return y, &linearCtx{x: x}
}

// Backward computes dx = dy·Wᵀ and accumulates dW = xᵀ·dy, db = Σ dy.
func (l *Linear) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	c := ctx.(*linearCtx)
	ws := l.ws
	dw := tensor.TMatMulInto(ws.Get(l.In, l.Out), c.x, dy)
	tensor.AxpyInPlace(l.Weight.G, 1, dw)
	ws.Put(dw)
	db := tensor.SumLastDimGradInto(ws.Get(l.Out), dy)
	tensor.AxpyInPlace(l.Bias.G, 1, db)
	ws.Put(db)
	return tensor.MatMulTInto(ws.GetCols(dy, l.In), dy, l.Weight.W)
}

// Params returns the weight and bias.
func (l *Linear) Params() []*Param { return []*Param{l.Weight, l.Bias} }

func (l *Linear) setWorkspace(ws *tensor.Workspace) { l.ws = ws }

// ------------------------------------------------------------------ GELU --

// GELU is the tanh-approximated Gaussian error linear unit used by GPT/BERT.
// The zero value is ready to use; a *GELU can also join a stage workspace.
type GELU struct{ ws *tensor.Workspace }

// geluCtx saves the derivative dy/dx per element, which Forward computes
// from the tanh it already holds, instead of the input it would otherwise
// have to push through a second tanh in Backward.
type geluCtx struct{ d *tensor.Tensor }

const geluC = 0.7978845608028654 // sqrt(2/pi)

// Forward applies 0.5·x·(1+tanh(√(2/π)(x+0.044715x³))) and saves the exact
// derivative of that approximation.
func (g GELU) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	y := g.ws.Get(x.Shape...)
	d := g.ws.Get(x.Shape...)
	for i, v := range x.Data {
		xv := float64(v)
		u := geluC * (xv + 0.044715*xv*xv*xv)
		t := math.Tanh(u)
		du := geluC * (1 + 3*0.044715*xv*xv)
		y.Data[i] = float32(0.5 * xv * (1 + t))
		d.Data[i] = float32(0.5*(1+t) + 0.5*xv*(1-t*t)*du)
	}
	return y, &geluCtx{d: d}
}

// Backward multiplies dy by the saved derivative.
func (g GELU) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	c := ctx.(*geluCtx)
	dx := g.ws.Get(dy.Shape...)
	for i, d := range c.d.Data {
		dx.Data[i] = dy.Data[i] * d
	}
	g.discard(c)
	return dx
}

// Params returns nil; GELU has no parameters.
func (GELU) Params() []*Param { return nil }

func (g *GELU) setWorkspace(ws *tensor.Workspace) { g.ws = ws }

func (g GELU) discard(ctx Ctx) { g.ws.Put(ctx.(*geluCtx).d) }

func (GELU) inputUnkept() {}

// ------------------------------------------------------------- LayerNorm --

// LayerNorm normalizes over the last dimension with learned gain and bias.
type LayerNorm struct {
	Dim   int
	Gamma *Param
	Beta  *Param
	Eps   float64
	ws    *tensor.Workspace
}

// NewLayerNorm builds a LayerNorm over vectors of size dim.
func NewLayerNorm(dim int) *LayerNorm {
	return &LayerNorm{
		Dim:   dim,
		Gamma: newParam(fmt.Sprintf("ln%d.gamma", dim), tensor.Ones(dim)),
		Beta:  newParam(fmt.Sprintf("ln%d.beta", dim), tensor.New(dim)),
		Eps:   1e-5,
	}
}

type layerNormCtx struct {
	xhat   *tensor.Tensor // normalized input
	invStd *tensor.Tensor // 1/σ per row
}

// Forward computes γ·(x−μ)/σ + β per row.
func (l *LayerNorm) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	n := l.Dim
	rows := x.Len() / n
	ws := l.ws
	y := ws.Get(x.Shape...)
	xhat := ws.Get(x.Shape...)
	invStd := ws.Get(rows)
	for r := 0; r < rows; r++ {
		xr := x.Data[r*n : (r+1)*n]
		var mean float64
		for _, v := range xr {
			mean += float64(v)
		}
		mean /= float64(n)
		var variance float64
		for _, v := range xr {
			d := float64(v) - mean
			variance += d * d
		}
		variance /= float64(n)
		inv := float32(1 / math.Sqrt(variance+l.Eps))
		invStd.Data[r] = inv
		xh := xhat.Data[r*n : (r+1)*n]
		yr := y.Data[r*n : (r+1)*n]
		for j, v := range xr {
			xh[j] = (v - float32(mean)) * inv
			yr[j] = xh[j]*l.Gamma.W.Data[j] + l.Beta.W.Data[j]
		}
	}
	return y, &layerNormCtx{xhat: xhat, invStd: invStd}
}

// Backward uses the standard layernorm gradient:
// dx = invStd · (dŷ − mean(dŷ) − x̂·mean(dŷ·x̂)) with dŷ = dy·γ.
func (l *LayerNorm) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	c := ctx.(*layerNormCtx)
	n := l.Dim
	rows := dy.Len() / n
	dx := l.ws.Get(dy.Shape...)
	for r := 0; r < rows; r++ {
		dyr := dy.Data[r*n : (r+1)*n]
		xh := c.xhat.Data[r*n : (r+1)*n]
		var sumDg, sumDgXh float64
		for j := range dyr {
			dg := float64(dyr[j]) * float64(l.Gamma.W.Data[j])
			sumDg += dg
			sumDgXh += dg * float64(xh[j])
			l.Gamma.G.Data[j] += dyr[j] * xh[j]
			l.Beta.G.Data[j] += dyr[j]
		}
		meanDg := float32(sumDg / float64(n))
		meanDgXh := float32(sumDgXh / float64(n))
		dxr := dx.Data[r*n : (r+1)*n]
		for j := range dyr {
			dg := dyr[j] * l.Gamma.W.Data[j]
			dxr[j] = c.invStd.Data[r] * (dg - meanDg - xh[j]*meanDgXh)
		}
	}
	l.discard(c)
	return dx
}

// Params returns gamma and beta.
func (l *LayerNorm) Params() []*Param { return []*Param{l.Gamma, l.Beta} }

func (l *LayerNorm) setWorkspace(ws *tensor.Workspace) { l.ws = ws }

func (l *LayerNorm) discard(ctx Ctx) {
	c := ctx.(*layerNormCtx)
	l.ws.Put(c.xhat)
	l.ws.Put(c.invStd)
}

// ------------------------------------------------------------ Sequential --

// Sequential chains layers; its Ctx stacks the member contexts.
type Sequential struct {
	Layers []Layer
	ws     *tensor.Workspace
}

// seqCtx owns the activations between members: mids[i] is member i's
// output and member i+1's input, or nil once Forward has released it.
type seqCtx struct {
	ctxs []Ctx
	mids []*tensor.Tensor
}

// NewSequential builds a chain of layers.
func NewSequential(layers ...Layer) *Sequential { return &Sequential{Layers: layers} }

// Forward threads x through each layer in order.
func (s *Sequential) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	last := len(s.Layers) - 1
	c := &seqCtx{ctxs: make([]Ctx, len(s.Layers)), mids: make([]*tensor.Tensor, max(last, 0))}
	for i, l := range s.Layers {
		in := x
		x, c.ctxs[i] = l.Forward(in)
		if i > 0 && inputUnkept(l) {
			s.ws.Put(in)
			c.mids[i-1] = nil
		}
		if i < last {
			c.mids[i] = x
		}
	}
	return x, c
}

// Backward threads dy backwards through each layer.
func (s *Sequential) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	c := ctx.(*seqCtx)
	ws := s.ws
	last := len(s.Layers) - 1
	for i := last; i >= 0; i-- {
		dx := s.Layers[i].Backward(c.ctxs[i], dy)
		if i < last {
			ws.Put(dy) // produced by member i+1; the caller keeps its own dy
		}
		if i > 0 {
			ws.Put(c.mids[i-1])
		}
		dy = dx
	}
	return dy
}

// Params concatenates the member layers' params.
func (s *Sequential) Params() []*Param {
	var ps []*Param
	for _, l := range s.Layers {
		ps = append(ps, l.Params()...)
	}
	return ps
}

func (s *Sequential) setWorkspace(ws *tensor.Workspace) {
	s.ws = ws
	for _, l := range s.Layers {
		SetWorkspace(l, ws)
	}
}

func (s *Sequential) discard(ctx Ctx) {
	c := ctx.(*seqCtx)
	for i, l := range s.Layers {
		discard(l, c.ctxs[i])
	}
	for _, t := range c.mids {
		s.ws.Put(t)
	}
}

// -------------------------------------------------------------- Residual --

// Residual wraps a sub-layer as y = x + f(x).
type Residual struct {
	Inner Layer
	ws    *tensor.Workspace
}

type residualCtx struct{ inner Ctx }

// NewResidual wraps inner with a skip connection.
func NewResidual(inner Layer) *Residual { return &Residual{Inner: inner} }

// Forward computes x + Inner(x).
func (l *Residual) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	y, inner := l.Inner.Forward(x)
	out := tensor.AddInto(l.ws.Get(y.Shape...), y, x)
	l.ws.Put(y)
	return out, &residualCtx{inner: inner}
}

// Backward propagates dy through the inner layer and adds the skip path.
func (l *Residual) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	c := ctx.(*residualCtx)
	dx := l.Inner.Backward(c.inner, dy)
	out := tensor.AddInto(l.ws.Get(dx.Shape...), dx, dy)
	l.ws.Put(dx)
	return out
}

// Params returns the inner layer's params.
func (l *Residual) Params() []*Param { return l.Inner.Params() }

func (l *Residual) setWorkspace(ws *tensor.Workspace) {
	l.ws = ws
	SetWorkspace(l.Inner, ws)
}

func (l *Residual) discard(ctx Ctx) { discard(l.Inner, ctx.(*residualCtx).inner) }

// ------------------------------------------------------------- Embedding --

// Embedding maps token ids (carried as float32 values in a [b,s] tensor) to
// hidden vectors and adds learned positional embeddings. It is the first
// pipeline stage's entry layer.
type Embedding struct {
	Vocab, Hidden, MaxSeq int
	Tok                   *Param
	Pos                   *Param
	ws                    *tensor.Workspace
}

// NewEmbedding builds token and positional tables.
func NewEmbedding(r *tensor.RNG, vocab, hidden, maxSeq int) *Embedding {
	return &Embedding{
		Vocab: vocab, Hidden: hidden, MaxSeq: maxSeq,
		Tok: newParam("embed.tok", tensor.Randn(r, 0.02, vocab, hidden)),
		Pos: newParam("embed.pos", tensor.Randn(r, 0.02, maxSeq, hidden)),
	}
}

type embeddingCtx struct {
	ids  []int
	b, s int
}

// Forward looks up ids [b,s] → [b,s,h].
func (e *Embedding) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	if x.Rank() != 2 {
		panic(fmt.Sprintf("nn: embedding wants [b,s] ids, got %v", x.Shape))
	}
	b, s := x.Shape[0], x.Shape[1]
	if s > e.MaxSeq {
		panic(fmt.Sprintf("nn: sequence length %d exceeds MaxSeq %d", s, e.MaxSeq))
	}
	ids := make([]int, b*s)
	y := e.ws.Get(b, s, e.Hidden)
	for i := range ids {
		id := int(x.Data[i])
		if id < 0 || id >= e.Vocab {
			panic(fmt.Sprintf("nn: token id %d out of vocab %d", id, e.Vocab))
		}
		ids[i] = id
		row := y.Data[i*e.Hidden : (i+1)*e.Hidden]
		tok := e.Tok.W.Data[id*e.Hidden : (id+1)*e.Hidden]
		pos := e.Pos.W.Data[(i%s)*e.Hidden : (i%s+1)*e.Hidden]
		for j := range row {
			row[j] = tok[j] + pos[j]
		}
	}
	return y, &embeddingCtx{ids: ids, b: b, s: s}
}

// Backward scatter-adds dy into the token and position tables. The returned
// input gradient is zero-shaped [b,s]: token ids are not differentiable.
func (e *Embedding) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	c := ctx.(*embeddingCtx)
	for i, id := range c.ids {
		row := dy.Data[i*e.Hidden : (i+1)*e.Hidden]
		tok := e.Tok.G.Data[id*e.Hidden : (id+1)*e.Hidden]
		pos := e.Pos.G.Data[(i%c.s)*e.Hidden : (i%c.s+1)*e.Hidden]
		for j, v := range row {
			tok[j] += v
			pos[j] += v
		}
	}
	return e.ws.Zeros(c.b, c.s)
}

// Params returns the two embedding tables.
func (e *Embedding) Params() []*Param { return []*Param{e.Tok, e.Pos} }

func (e *Embedding) setWorkspace(ws *tensor.Workspace) { e.ws = ws }
