package nn

import (
	"fmt"
	"math"

	"repro/internal/tensor"
)

// SoftmaxCrossEntropy computes the mean negative log-likelihood of targets
// under softmax(logits) and the gradient w.r.t. logits. logits is [..,V]
// with leading dims collapsed to n rows; targets has length n.
func SoftmaxCrossEntropy(logits *tensor.Tensor, targets []int) (float64, *tensor.Tensor) {
	return SoftmaxCrossEntropyIn(nil, logits, targets)
}

// SoftmaxCrossEntropyIn is SoftmaxCrossEntropy with the gradient drawn from
// ws; the caller owns it. A nil ws allocates.
func SoftmaxCrossEntropyIn(ws *tensor.Workspace, logits *tensor.Tensor, targets []int) (float64, *tensor.Tensor) {
	v := logits.Dim(-1)
	n := logits.Len() / v
	if len(targets) != n {
		panic(fmt.Sprintf("nn: %d target rows for %d logit rows", len(targets), n))
	}
	// The gradient starts as the probabilities; each row's target
	// probability is read before that entry is turned into p−1.
	dlogits := tensor.SoftmaxLastDimInto(ws.Get(logits.Shape...), logits)
	var loss float64
	invN := float32(1) / float32(n)
	for r := 0; r < n; r++ {
		tgt := targets[r]
		if tgt < 0 || tgt >= v {
			panic(fmt.Sprintf("nn: target %d out of vocab %d", tgt, v))
		}
		p := float64(dlogits.Data[r*v+tgt])
		loss -= math.Log(math.Max(p, 1e-12))
		dlogits.Data[r*v+tgt] -= 1
	}
	tensor.ScaleInPlace(dlogits, invN)
	return loss / float64(n), dlogits
}

// Optimizer updates parameters from their accumulated gradients.
type Optimizer interface {
	Step(params []*Param)
}

// SGD is stochastic gradient descent with optional momentum.
type SGD struct {
	LR       float64
	Momentum float64
	vel      map[*Param]*tensor.Tensor
}

// NewSGD returns an SGD optimizer.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, vel: map[*Param]*tensor.Tensor{}}
}

// Step applies one update and clears gradients.
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		if o.Momentum != 0 {
			v := o.vel[p]
			if v == nil {
				v = tensor.New(p.W.Shape...)
				o.vel[p] = v
			}
			for i := range v.Data {
				v.Data[i] = float32(o.Momentum)*v.Data[i] + p.G.Data[i]
				p.W.Data[i] -= float32(o.LR) * v.Data[i]
			}
		} else {
			tensor.AxpyInPlace(p.W, float32(-o.LR), p.G)
		}
		p.G.Zero()
	}
}

// Adam is the Adam optimizer with bias correction.
type Adam struct {
	LR, Beta1, Beta2, Eps float64
	t                     int
	m, v                  map[*Param]*tensor.Tensor
}

// NewAdam returns Adam with the usual defaults for unset fields.
func NewAdam(lr float64) *Adam {
	return &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8,
		m: map[*Param]*tensor.Tensor{}, v: map[*Param]*tensor.Tensor{}}
}

// Step applies one Adam update and clears gradients.
func (o *Adam) Step(params []*Param) {
	o.t++
	c1 := 1 - math.Pow(o.Beta1, float64(o.t))
	c2 := 1 - math.Pow(o.Beta2, float64(o.t))
	for _, p := range params {
		m := o.m[p]
		v := o.v[p]
		if m == nil {
			m = tensor.New(p.W.Shape...)
			v = tensor.New(p.W.Shape...)
			o.m[p], o.v[p] = m, v
		}
		for i := range p.W.Data {
			g := float64(p.G.Data[i])
			mi := o.Beta1*float64(m.Data[i]) + (1-o.Beta1)*g
			vi := o.Beta2*float64(v.Data[i]) + (1-o.Beta2)*g*g
			m.Data[i], v.Data[i] = float32(mi), float32(vi)
			p.W.Data[i] -= float32(o.LR * (mi / c1) / (math.Sqrt(vi/c2) + o.Eps))
		}
		p.G.Zero()
	}
}
