package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// MultiHeadAttention is scaled dot-product attention with h heads over
// hidden size d (d % h == 0). Causal masking makes it GPT-style; without it
// the layer is BERT-style bidirectional.
type MultiHeadAttention struct {
	Hidden, Heads int
	Causal        bool
	QKV           *Linear // fused projection hidden -> 3*hidden
	Proj          *Linear // output projection hidden -> hidden
	ws            *tensor.Workspace
}

// NewMultiHeadAttention builds the fused-QKV attention layer.
func NewMultiHeadAttention(r *tensor.RNG, hidden, heads int, causal bool) *MultiHeadAttention {
	if hidden%heads != 0 {
		panic(fmt.Sprintf("nn: hidden %d not divisible by heads %d", hidden, heads))
	}
	return &MultiHeadAttention{
		Hidden: hidden, Heads: heads, Causal: causal,
		QKV:  NewLinear(r, hidden, 3*hidden),
		Proj: NewLinear(r, hidden, hidden),
	}
}

type mhaCtx struct {
	qkvCtx  Ctx
	projCtx Ctx
	qkv     *tensor.Tensor   // [b,s,3h]
	concat  *tensor.Tensor   // [b,s,h], the projection's input
	att     []*tensor.Tensor // per (batch,head) softmax matrices [s,s]
	b, s    int
}

// head gathers head a of q/k/v part (part 0=q,1=k,2=v) for batch bi into
// the contiguous [s,dh] matrix out.
func (m *MultiHeadAttention) head(out, qkv *tensor.Tensor, bi, part, a, s int) {
	dh := m.Hidden / m.Heads
	w := 3 * m.Hidden
	base := bi*s*w + part*m.Hidden + a*dh
	for t := 0; t < s; t++ {
		copy(out.Data[t*dh:(t+1)*dh], qkv.Data[base+t*w:base+t*w+dh])
	}
}

// addHead scatter-adds a [s,dh] gradient back into the fused layout.
func (m *MultiHeadAttention) addHead(dst *tensor.Tensor, src *tensor.Tensor, bi, part, a, s int) {
	dh := m.Hidden / m.Heads
	w := 3 * m.Hidden
	base := bi*s*w + part*m.Hidden + a*dh
	for t := 0; t < s; t++ {
		row := dst.Data[base+t*w : base+t*w+dh]
		for j := 0; j < dh; j++ {
			row[j] += src.Data[t*dh+j]
		}
	}
}

// Forward computes multi-head attention for x [b,s,h].
func (m *MultiHeadAttention) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) {
	if x.Rank() != 3 || x.Dim(-1) != m.Hidden {
		panic(fmt.Sprintf("nn: attention wants [b,s,%d], got %v", m.Hidden, x.Shape))
	}
	b, s := x.Shape[0], x.Shape[1]
	dh := m.Hidden / m.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	ws := m.ws

	c := &mhaCtx{b: b, s: s, concat: ws.Get(b, s, m.Hidden), att: make([]*tensor.Tensor, b*m.Heads)}
	c.qkv, c.qkvCtx = m.QKV.Forward(x)
	// Per-head scratch, reused across heads: every kernel below overwrites
	// its destination in full.
	q, k, v := ws.Get(s, dh), ws.Get(s, dh), ws.Get(s, dh)
	scores, out := ws.Get(s, s), ws.Get(s, dh)
	for bi := 0; bi < b; bi++ {
		for a := 0; a < m.Heads; a++ {
			m.head(q, c.qkv, bi, 0, a, s)
			m.head(k, c.qkv, bi, 1, a, s)
			m.head(v, c.qkv, bi, 2, a, s)
			tensor.MatMulTInto(scores, q, k) // [s,s]
			tensor.ScaleInPlace(scores, scale)
			if m.Causal {
				for i := 0; i < s; i++ {
					for j := i + 1; j < s; j++ {
						scores.Data[i*s+j] = -1e9
					}
				}
			}
			att := tensor.SoftmaxLastDimInto(ws.Get(s, s), scores)
			c.att[bi*m.Heads+a] = att
			tensor.MatMulInto(out, att, v) // [s,dh]
			// Write out into the concat buffer at head offset a.
			for t := 0; t < s; t++ {
				copy(c.concat.Data[bi*s*m.Hidden+t*m.Hidden+a*dh:bi*s*m.Hidden+t*m.Hidden+(a+1)*dh],
					out.Data[t*dh:(t+1)*dh])
			}
		}
	}
	for _, t := range [...]*tensor.Tensor{q, k, v, scores, out} {
		ws.Put(t)
	}
	var y *tensor.Tensor
	y, c.projCtx = m.Proj.Forward(c.concat)
	return y, c
}

// Backward propagates through projection, attention weights and the fused
// QKV projection.
func (m *MultiHeadAttention) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	c := ctx.(*mhaCtx)
	b, s := c.b, c.s
	dh := m.Hidden / m.Heads
	scale := float32(1 / math.Sqrt(float64(dh)))
	ws := m.ws

	dConcat := m.Proj.Backward(c.projCtx, dy) // [b,s,h]
	dQKV := ws.Zeros(b, s, 3*m.Hidden)        // addHead accumulates into it
	dOut, q, k, v := ws.Get(s, dh), ws.Get(s, dh), ws.Get(s, dh), ws.Get(s, dh)
	dAtt, dScores := ws.Get(s, s), ws.Get(s, s)
	dQ, dK, dV := ws.Get(s, dh), ws.Get(s, dh), ws.Get(s, dh)
	for bi := 0; bi < b; bi++ {
		for a := 0; a < m.Heads; a++ {
			// Gather this head's slice of dConcat into [s,dh].
			for t := 0; t < s; t++ {
				copy(dOut.Data[t*dh:(t+1)*dh],
					dConcat.Data[bi*s*m.Hidden+t*m.Hidden+a*dh:bi*s*m.Hidden+t*m.Hidden+(a+1)*dh])
			}
			m.head(q, c.qkv, bi, 0, a, s)
			m.head(k, c.qkv, bi, 1, a, s)
			m.head(v, c.qkv, bi, 2, a, s)
			att := c.att[bi*m.Heads+a]

			tensor.MatMulTInto(dAtt, dOut, v) // dOut·vᵀ : [s,s]
			tensor.TMatMulInto(dV, att, dOut) // attᵀ·dOut : [s,dh]
			tensor.SoftmaxBackwardLastDimInto(dScores, att, dAtt)
			if m.Causal {
				for i := 0; i < s; i++ {
					for j := i + 1; j < s; j++ {
						dScores.Data[i*s+j] = 0
					}
				}
			}
			tensor.ScaleInPlace(dScores, scale)
			tensor.MatMulInto(dQ, dScores, k)  // [s,dh]
			tensor.TMatMulInto(dK, dScores, q) // scoresᵀ·q : [s,dh]

			m.addHead(dQKV, dQ, bi, 0, a, s)
			m.addHead(dQKV, dK, bi, 1, a, s)
			m.addHead(dQKV, dV, bi, 2, a, s)
		}
	}
	for _, t := range [...]*tensor.Tensor{dConcat, dOut, q, k, v, dAtt, dScores, dQ, dK, dV} {
		ws.Put(t)
	}
	dx := m.QKV.Backward(c.qkvCtx, dQKV)
	ws.Put(dQKV)
	m.release(c)
	return dx
}

// release returns the tensors the context saved.
func (m *MultiHeadAttention) release(c *mhaCtx) {
	m.ws.Put(c.qkv)
	m.ws.Put(c.concat)
	for _, t := range c.att {
		m.ws.Put(t)
	}
}

// Params returns the QKV and projection parameters.
func (m *MultiHeadAttention) Params() []*Param {
	return append(m.QKV.Params(), m.Proj.Params()...)
}

func (m *MultiHeadAttention) setWorkspace(ws *tensor.Workspace) {
	m.ws = ws
	m.QKV.setWorkspace(ws)
	m.Proj.setWorkspace(ws)
}

func (m *MultiHeadAttention) discard(ctx Ctx) { m.release(ctx.(*mhaCtx)) }
