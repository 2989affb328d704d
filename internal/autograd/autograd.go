// Package autograd is a small reverse-mode automatic differentiation engine
// over internal/tensor. Nothing outside its own tests imports it: the
// pipeline runtime uses the hand-written layer backwards of internal/nn,
// whose tests check them against finite differences.
package autograd

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// Value is a node in the computation graph: a tensor plus (after Backward)
// its gradient.
type Value struct {
	Data *tensor.Tensor
	Grad *tensor.Tensor

	requiresGrad bool
	parents      []*Value
	backFn       func(out *Value) // accumulates into parents' Grad
	op           string
}

// NewLeaf wraps a tensor as a graph leaf; requiresGrad marks parameters.
func NewLeaf(t *tensor.Tensor, requiresGrad bool) *Value {
	return &Value{Data: t, requiresGrad: requiresGrad}
}

// RequiresGrad reports whether gradients flow into this node.
func (v *Value) RequiresGrad() bool { return v.requiresGrad }

// Op returns the producing operation name ("" for leaves).
func (v *Value) Op() string { return v.op }

func newNode(op string, data *tensor.Tensor, back func(out *Value), parents ...*Value) *Value {
	rg := false
	for _, p := range parents {
		rg = rg || p.requiresGrad
	}
	return &Value{Data: data, requiresGrad: rg, parents: parents, backFn: back, op: op}
}

func (v *Value) accum(g *tensor.Tensor) {
	if !v.requiresGrad {
		return
	}
	if v.Grad == nil {
		v.Grad = tensor.New(v.Data.Shape...)
	}
	tensor.AxpyInPlace(v.Grad, 1, g)
}

// MatMul returns a·b with gradients dA = dC·Bᵀ, dB = Aᵀ·dC.
func MatMul(a, b *Value) *Value {
	out := newNode("matmul", tensor.MatMul(a.Data, b.Data), nil, a, b)
	out.backFn = func(o *Value) {
		a.accum(tensor.MatMulT(o.Grad, b.Data))
		b.accum(tensor.TMatMul(a.Data, o.Grad))
	}
	return out
}

// Add returns a+b (b may be a bias vector broadcast over rows).
func Add(a, b *Value) *Value {
	out := newNode("add", tensor.Add(a.Data, b.Data), nil, a, b)
	out.backFn = func(o *Value) {
		a.accum(o.Grad)
		if len(b.Data.Data) == len(o.Grad.Data) {
			b.accum(o.Grad)
		} else {
			b.accum(tensor.SumLastDimGrad(o.Grad))
		}
	}
	return out
}

// Sub returns a-b.
func Sub(a, b *Value) *Value {
	out := newNode("sub", tensor.Sub(a.Data, b.Data), nil, a, b)
	out.backFn = func(o *Value) {
		a.accum(o.Grad)
		b.accum(tensor.Scale(o.Grad, -1))
	}
	return out
}

// Mul returns the elementwise product.
func Mul(a, b *Value) *Value {
	out := newNode("mul", tensor.Mul(a.Data, b.Data), nil, a, b)
	out.backFn = func(o *Value) {
		a.accum(tensor.Mul(o.Grad, b.Data))
		b.accum(tensor.Mul(o.Grad, a.Data))
	}
	return out
}

// Scale returns s·a for a constant s.
func Scale(a *Value, s float32) *Value {
	out := newNode("scale", tensor.Scale(a.Data, s), nil, a)
	out.backFn = func(o *Value) { a.accum(tensor.Scale(o.Grad, s)) }
	return out
}

// Tanh applies elementwise tanh.
func Tanh(a *Value) *Value {
	y := a.Data.Clone()
	for i, v := range y.Data {
		y.Data[i] = tanh32(v)
	}
	out := newNode("tanh", y, nil, a)
	out.backFn = func(o *Value) {
		g := tensor.New(y.Shape...)
		for i := range g.Data {
			g.Data[i] = o.Grad.Data[i] * (1 - y.Data[i]*y.Data[i])
		}
		a.accum(g)
	}
	return out
}

// ReLU applies elementwise max(0,x).
func ReLU(a *Value) *Value {
	y := a.Data.Clone()
	for i, v := range y.Data {
		if v < 0 {
			y.Data[i] = 0
		}
	}
	out := newNode("relu", y, nil, a)
	out.backFn = func(o *Value) {
		g := tensor.New(y.Shape...)
		for i := range g.Data {
			if a.Data.Data[i] > 0 {
				g.Data[i] = o.Grad.Data[i]
			}
		}
		a.accum(g)
	}
	return out
}

// Softmax applies softmax over the last dimension.
func Softmax(a *Value) *Value {
	y := tensor.SoftmaxLastDim(a.Data)
	out := newNode("softmax", y, nil, a)
	out.backFn = func(o *Value) { a.accum(tensor.SoftmaxBackwardLastDim(y, o.Grad)) }
	return out
}

// SumAll reduces to a scalar (shape [1]).
func SumAll(a *Value) *Value {
	s := tensor.FromSlice([]float32{float32(a.Data.Sum())}, 1)
	out := newNode("sum", s, nil, a)
	out.backFn = func(o *Value) {
		g := tensor.Full(o.Grad.Data[0], a.Data.Shape...)
		a.accum(g)
	}
	return out
}

// MeanAll reduces to the scalar mean.
func MeanAll(a *Value) *Value {
	return Scale(SumAll(a), 1/float32(a.Data.Len()))
}

// Backward runs reverse-mode differentiation from a scalar root, seeding
// d(root)/d(root) = 1 and accumulating into every reachable leaf with
// requiresGrad set.
func Backward(root *Value) error {
	if root.Data.Len() != 1 {
		return fmt.Errorf("autograd: Backward needs a scalar root, got shape %v", root.Data.Shape)
	}
	order, err := topoSort(root)
	if err != nil {
		return err
	}
	root.Grad = tensor.Ones(root.Data.Shape...)
	for i := len(order) - 1; i >= 0; i-- {
		v := order[i]
		if v.backFn != nil && v.Grad != nil && v.requiresGrad {
			v.backFn(v)
		}
	}
	return nil
}

// topoSort returns nodes in dependency order (parents before children).
func topoSort(root *Value) ([]*Value, error) {
	var order []*Value
	state := map[*Value]int{} // 0 unvisited, 1 in-stack, 2 done
	var visit func(*Value) error
	visit = func(v *Value) error {
		switch state[v] {
		case 1:
			return fmt.Errorf("autograd: cycle detected at op %q", v.op)
		case 2:
			return nil
		}
		state[v] = 1
		for _, p := range v.parents {
			if err := visit(p); err != nil {
				return err
			}
		}
		state[v] = 2
		order = append(order, v)
		return nil
	}
	if err := visit(root); err != nil {
		return nil, err
	}
	return order, nil
}

func tanh32(x float32) float32 { return float32(math.Tanh(float64(x))) }
