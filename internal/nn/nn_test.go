package nn

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

// zeroGrads clears the gradient accumulators of all params of a layer.
func zeroGrads(l Layer) {
	for _, p := range l.Params() {
		p.G.Zero()
	}
}

// numParams counts scalar parameters of a layer.
func numParams(l Layer) int {
	n := 0
	for _, p := range l.Params() {
		n += p.W.Len()
	}
	return n
}

// layerGradCheck verifies a layer's backward pass against central finite
// differences, both for the input gradient and every parameter gradient,
// using the scalar probe loss L = Σ (y ⊙ mask).
func layerGradCheck(t *testing.T, l Layer, x *tensor.Tensor, tol float64) {
	t.Helper()
	r := tensor.NewRNG(99)
	y0, ctx := l.Forward(x)
	mask := tensor.Randn(r, 1, y0.Shape...)

	zeroGrads(l)
	dx := l.Backward(ctx, mask)

	const eps = 2e-3
	probe := func() float64 {
		y, _ := l.Forward(x)
		return tensor.Dot(y, mask)
	}
	// Input gradient (skip integer-valued inputs like embeddings).
	if dx != nil && dx.Len() == x.Len() && l.Params() != nil || dx != nil {
		for i := 0; i < x.Len(); i += 1 + x.Len()/17 { // sample elements
			if _, isEmbed := l.(*Embedding); isEmbed {
				break
			}
			orig := x.Data[i]
			x.Data[i] = orig + eps
			lp := probe()
			x.Data[i] = orig - eps
			lm := probe()
			x.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(dx.Data[i])) > tol {
				t.Fatalf("dx[%d]: numeric %g analytic %g", i, num, dx.Data[i])
			}
		}
	}
	// Parameter gradients.
	for pi, p := range l.Params() {
		step := 1 + p.W.Len()/13
		for i := 0; i < p.W.Len(); i += step {
			orig := p.W.Data[i]
			p.W.Data[i] = orig + eps
			lp := probe()
			p.W.Data[i] = orig - eps
			lm := probe()
			p.W.Data[i] = orig
			num := (lp - lm) / (2 * eps)
			if math.Abs(num-float64(p.G.Data[i])) > tol {
				t.Fatalf("param %d (%s) grad[%d]: numeric %g analytic %g", pi, p.Name, i, num, p.G.Data[i])
			}
		}
	}
}

func TestLinearForwardShape(t *testing.T) {
	r := tensor.NewRNG(1)
	l := NewLinear(r, 4, 6)
	y, _ := l.Forward(tensor.Randn(r, 1, 2, 3, 4))
	if y.Shape[0] != 2 || y.Shape[1] != 3 || y.Shape[2] != 6 {
		t.Fatalf("shape %v", y.Shape)
	}
}

func TestLinearGradCheck(t *testing.T) {
	r := tensor.NewRNG(2)
	layerGradCheck(t, NewLinear(r, 5, 4), tensor.Randn(r, 1, 3, 5), 5e-2)
}

func TestGELUGradCheck(t *testing.T) {
	r := tensor.NewRNG(3)
	layerGradCheck(t, GELU{}, tensor.Randn(r, 1, 4, 6), 5e-2)
}

func TestGELUKnownValues(t *testing.T) {
	y, _ := GELU{}.Forward(&tensor.Tensor{Shape: []int{3}, Data: []float32{0, 100, -100}})
	if y.Data[0] != 0 {
		t.Fatalf("gelu(0) = %g", y.Data[0])
	}
	if math.Abs(float64(y.Data[1])-100) > 1e-3 {
		t.Fatalf("gelu(100) = %g", y.Data[1])
	}
	if math.Abs(float64(y.Data[2])) > 1e-3 {
		t.Fatalf("gelu(-100) = %g", y.Data[2])
	}
}

func TestLayerNormGradCheck(t *testing.T) {
	r := tensor.NewRNG(4)
	ln := NewLayerNorm(6)
	// Non-trivial gamma/beta so their gradients are exercised.
	for i := range ln.Gamma.W.Data {
		ln.Gamma.W.Data[i] = 1 + 0.1*float32(i)
		ln.Beta.W.Data[i] = 0.05 * float32(i)
	}
	layerGradCheck(t, ln, tensor.Randn(r, 1, 3, 6), 5e-2)
}

func TestLayerNormNormalizes(t *testing.T) {
	r := tensor.NewRNG(5)
	ln := NewLayerNorm(8)
	y, _ := ln.Forward(tensor.Randn(r, 3, 4, 8))
	for row := 0; row < 4; row++ {
		var mean, sq float64
		for _, v := range y.Row(row) {
			mean += float64(v)
		}
		mean /= 8
		for _, v := range y.Row(row) {
			sq += (float64(v) - mean) * (float64(v) - mean)
		}
		if math.Abs(mean) > 1e-4 || math.Abs(sq/8-1) > 1e-2 {
			t.Fatalf("row %d mean %g var %g", row, mean, sq/8)
		}
	}
}

func TestAttentionGradCheck(t *testing.T) {
	r := tensor.NewRNG(6)
	layerGradCheck(t, NewMultiHeadAttention(r, 8, 2, false), tensor.Randn(r, 0.5, 2, 3, 8), 6e-2)
}

func TestCausalAttentionGradCheck(t *testing.T) {
	r := tensor.NewRNG(7)
	layerGradCheck(t, NewMultiHeadAttention(r, 8, 2, true), tensor.Randn(r, 0.5, 2, 3, 8), 6e-2)
}

func TestCausalAttentionMasksFuture(t *testing.T) {
	r := tensor.NewRNG(8)
	m := NewMultiHeadAttention(r, 8, 2, true)
	x := tensor.Randn(r, 1, 1, 4, 8)
	y1, _ := m.Forward(x)
	// Changing a future token must not change earlier outputs.
	x2 := x.Clone()
	for j := 0; j < 8; j++ {
		x2.Data[3*8+j] += 5
	}
	y2, _ := m.Forward(x2)
	for tok := 0; tok < 3; tok++ {
		for j := 0; j < 8; j++ {
			if y1.Data[tok*8+j] != y2.Data[tok*8+j] {
				t.Fatalf("token %d changed when future token perturbed", tok)
			}
		}
	}
}

func TestBidirectionalAttentionSeesFuture(t *testing.T) {
	r := tensor.NewRNG(9)
	m := NewMultiHeadAttention(r, 8, 2, false)
	x := tensor.Randn(r, 1, 1, 4, 8)
	y1, _ := m.Forward(x)
	x2 := x.Clone()
	for j := 0; j < 8; j++ {
		x2.Data[3*8+j] += 5
	}
	y2, _ := m.Forward(x2)
	if tensor.MaxAbsDiff(y1, y2) == 0 {
		t.Fatal("bidirectional attention ignored a future-token change")
	}
}

func TestResidualGradCheck(t *testing.T) {
	r := tensor.NewRNG(10)
	layerGradCheck(t, NewResidual(NewLinear(r, 6, 6)), tensor.Randn(r, 1, 3, 6), 5e-2)
}

func TestSequentialGradCheck(t *testing.T) {
	r := tensor.NewRNG(11)
	seq := NewSequential(NewLinear(r, 5, 7), GELU{}, NewLayerNorm(7), NewLinear(r, 7, 4))
	layerGradCheck(t, seq, tensor.Randn(r, 1, 2, 5), 6e-2)
}

func TestBlockGradCheck(t *testing.T) {
	r := tensor.NewRNG(12)
	cfg := Tiny(1, 8, 2, 16, 4, true)
	layerGradCheck(t, NewBlock(r, cfg), tensor.Randn(r, 0.5, 1, 3, 8), 8e-2)
}

func TestEmbeddingForwardBackward(t *testing.T) {
	r := tensor.NewRNG(13)
	e := NewEmbedding(r, 10, 4, 5)
	ids := &tensor.Tensor{Shape: []int{2, 3}, Data: []float32{1, 2, 3, 1, 0, 9}}
	y, ctx := e.Forward(ids)
	if y.Shape[0] != 2 || y.Shape[1] != 3 || y.Shape[2] != 4 {
		t.Fatalf("shape %v", y.Shape)
	}
	// Same token at same position must produce identical rows.
	e2 := NewEmbedding(r, 10, 4, 5)
	_ = e2
	dy := tensor.Ones(2, 3, 4)
	zeroGrads(e)
	dx := e.Backward(ctx, dy)
	if dx.Len() != 6 {
		t.Fatalf("dx len %d", dx.Len())
	}
	// Token 1 appears twice → its grad row should be 2 everywhere.
	for j := 0; j < 4; j++ {
		if e.Tok.G.At(1, j) != 2 {
			t.Fatalf("tok grad = %g, want 2", e.Tok.G.At(1, j))
		}
		if e.Tok.G.At(5, j) != 0 {
			t.Fatal("untouched token must have zero grad")
		}
	}
	// Position 0 appears in both batch rows → grad 2.
	if e.Pos.G.At(0, 0) != 2 {
		t.Fatalf("pos grad = %g", e.Pos.G.At(0, 0))
	}
}

func TestEmbeddingRejectsBadIds(t *testing.T) {
	r := tensor.NewRNG(14)
	e := NewEmbedding(r, 4, 2, 3)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on out-of-vocab id")
		}
	}()
	e.Forward(&tensor.Tensor{Shape: []int{1, 1}, Data: []float32{5}})
}

func TestSoftmaxCrossEntropyUniform(t *testing.T) {
	logits := tensor.New(2, 4) // all zeros -> uniform
	loss, d := SoftmaxCrossEntropy(logits, []int{0, 3})
	if math.Abs(loss-math.Log(4)) > 1e-5 {
		t.Fatalf("loss %g want ln4", loss)
	}
	// Gradient rows sum to 0 and the target entry is negative.
	for r := 0; r < 2; r++ {
		var sum float64
		for j := 0; j < 4; j++ {
			sum += float64(d.At(r, j))
		}
		if math.Abs(sum) > 1e-6 {
			t.Fatalf("row %d grad sum %g", r, sum)
		}
	}
	if d.At(0, 0) >= 0 || d.At(1, 3) >= 0 {
		t.Fatal("target grads must be negative")
	}
}

func TestSoftmaxCrossEntropyGradCheck(t *testing.T) {
	r := tensor.NewRNG(15)
	logits := tensor.Randn(r, 1, 3, 5)
	targets := []int{1, 4, 0}
	_, d := SoftmaxCrossEntropy(logits, targets)
	const eps = 1e-3
	for i := range logits.Data {
		orig := logits.Data[i]
		logits.Data[i] = orig + eps
		lp, _ := SoftmaxCrossEntropy(logits, targets)
		logits.Data[i] = orig - eps
		lm, _ := SoftmaxCrossEntropy(logits, targets)
		logits.Data[i] = orig
		num := (lp - lm) / (2 * eps)
		if math.Abs(num-float64(d.Data[i])) > 1e-3 {
			t.Fatalf("dlogits[%d]: numeric %g analytic %g", i, num, d.Data[i])
		}
	}
}

func TestPartitionUnits(t *testing.T) {
	b := PartitionUnits(10, 4)
	want := []int{0, 3, 6, 8, 10}
	for i, w := range want {
		if b[i] != w {
			t.Fatalf("bounds %v want %v", b, want)
		}
	}
}

func TestPartitionUnitsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		s := 1 + r.Intn(16)
		n := s + r.Intn(64)
		b := PartitionUnits(n, s)
		if b[0] != 0 || b[len(b)-1] != n {
			return false
		}
		minSz, maxSz := n, 0
		for i := 0; i < s; i++ {
			sz := b[i+1] - b[i]
			if sz <= 0 {
				return false
			}
			minSz = min(minSz, sz)
			maxSz = max(maxSz, sz)
		}
		return maxSz-minSz <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestModelSplitPreservesParams(t *testing.T) {
	r := tensor.NewRNG(16)
	cfg := Tiny(4, 8, 2, 16, 4, true)
	m := Build(r, cfg)
	total := numParams(NewSequential(m.Units...))
	stages := m.Split(3)
	var split int
	for _, st := range stages {
		split += numParams(st.Seq)
	}
	if split != total {
		t.Fatalf("split params %d != model params %d", split, total)
	}
}

// TestModelEndToEndMatchesStagedExecution checks that running the full model
// equals running its pipeline stages in sequence, forward and backward.
func TestModelEndToEndMatchesStagedExecution(t *testing.T) {
	cfg := Tiny(4, 8, 2, 16, 4, true)
	mA := Build(tensor.NewRNG(17), cfg)
	mB := Build(tensor.NewRNG(17), cfg)

	r := tensor.NewRNG(18)
	ids := tensor.New(2, 4)
	for i := range ids.Data {
		ids.Data[i] = float32(r.Intn(cfg.Vocab))
	}
	targets := make([]int, 8)
	for i := range targets {
		targets[i] = r.Intn(cfg.Vocab)
	}

	// Whole-model pass.
	whole := NewSequential(mA.Units...)
	yA, ctxA := whole.Forward(ids)
	lossA, dA := SoftmaxCrossEntropy(yA, targets)
	whole.Backward(ctxA, dA)

	// Staged pass.
	stages := mB.Split(3)
	x := ids
	ctxs := make([]Ctx, len(stages))
	for i, st := range stages {
		x, ctxs[i] = st.Forward(x)
	}
	lossB, d := SoftmaxCrossEntropy(x, targets)
	for i := len(stages) - 1; i >= 0; i-- {
		d = stages[i].Backward(ctxs[i], d)
	}

	if math.Abs(lossA-lossB) > 1e-6 {
		t.Fatalf("loss %g vs %g", lossA, lossB)
	}
	pa, pb := mA.Params(), mB.Params()
	if len(pa) != len(pb) {
		t.Fatalf("param count %d vs %d", len(pa), len(pb))
	}
	for i := range pa {
		if d := tensor.MaxAbsDiff(pa[i].G, pb[i].G); d > 1e-5 {
			t.Fatalf("param %d (%s) grad diff %g", i, pa[i].Name, d)
		}
	}
}

func TestSGDStepReducesLoss(t *testing.T) {
	r := tensor.NewRNG(19)
	l := NewLinear(r, 4, 4)
	x := tensor.Randn(r, 1, 8, 4)
	targets := []int{0, 1, 2, 3, 0, 1, 2, 3}
	opt := NewSGD(0.5, 0.9)
	var first, last float64
	for it := 0; it < 30; it++ {
		y, ctx := l.Forward(x)
		loss, d := SoftmaxCrossEntropy(y, targets)
		if it == 0 {
			first = loss
		}
		last = loss
		l.Backward(ctx, d)
		opt.Step(l.Params())
	}
	if last >= first {
		t.Fatalf("SGD did not reduce loss: %g -> %g", first, last)
	}
}

func TestAdamStepReducesLoss(t *testing.T) {
	r := tensor.NewRNG(20)
	l := NewLinear(r, 4, 4)
	x := tensor.Randn(r, 1, 8, 4)
	targets := []int{3, 2, 1, 0, 3, 2, 1, 0}
	opt := NewAdam(0.05)
	var first, last float64
	for it := 0; it < 30; it++ {
		y, ctx := l.Forward(x)
		loss, d := SoftmaxCrossEntropy(y, targets)
		if it == 0 {
			first = loss
		}
		last = loss
		l.Backward(ctx, d)
		opt.Step(l.Params())
	}
	if last >= first {
		t.Fatalf("Adam did not reduce loss: %g -> %g", first, last)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Name: "l0", Layers: 0, Hidden: 8, Heads: 2, Vocab: 4, SeqLen: 4},
		{Name: "h0", Layers: 1, Hidden: 7, Heads: 2, Vocab: 4, SeqLen: 4},
		{Name: "v0", Layers: 1, Hidden: 8, Heads: 2, Vocab: 0, SeqLen: 4},
	}
	for _, c := range bad {
		if c.Validate() == nil {
			t.Fatalf("config %q should fail validation", c.Name)
		}
	}
	if err := BERTStyle().Validate(); err != nil {
		t.Fatal(err)
	}
	if err := GPTStyle().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestForwardIsReentrant runs two interleaved micro-batches through one
// layer and checks the contexts do not interfere — the core requirement for
// pipeline execution.
func TestForwardIsReentrant(t *testing.T) {
	r := tensor.NewRNG(21)
	cfg := Tiny(1, 8, 2, 16, 4, true)
	blk := NewBlock(r, cfg)
	x1 := tensor.Randn(r, 1, 1, 4, 8)
	x2 := tensor.Randn(r, 1, 1, 4, 8)

	// Sequential reference.
	yRef1, cRef1 := blk.Forward(x1)
	dRef1 := blk.Backward(cRef1, tensor.Ones(yRef1.Shape...))
	yRef2, cRef2 := blk.Forward(x2)
	dRef2 := blk.Backward(cRef2, tensor.Ones(yRef2.Shape...))

	// Interleaved with fresh grads.
	zeroGrads(blk)
	y1, c1 := blk.Forward(x1)
	y2, c2 := blk.Forward(x2)
	d2 := blk.Backward(c2, tensor.Ones(y2.Shape...))
	d1 := blk.Backward(c1, tensor.Ones(y1.Shape...))

	if tensor.MaxAbsDiff(yRef1, y1) != 0 || tensor.MaxAbsDiff(yRef2, y2) != 0 {
		t.Fatal("interleaving changed forward outputs")
	}
	if tensor.MaxAbsDiff(dRef1, d1) > 1e-6 || tensor.MaxAbsDiff(dRef2, d2) > 1e-6 {
		t.Fatal("interleaving changed input gradients")
	}
}
