package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

// sameBits fails unless a and b agree on every float.
func sameBits(t *testing.T, what string, a, b *tensor.Tensor) {
	t.Helper()
	if len(a.Data) != len(b.Data) {
		t.Fatalf("%s: %v vs %v", what, a.Shape, b.Shape)
	}
	for i := range a.Data {
		if a.Data[i] != b.Data[i] {
			t.Fatalf("%s: element %d is %g with a workspace, %g on the heap", what, i, a.Data[i], b.Data[i])
		}
	}
}

// workspaceCases are stacks covering every layer type, built twice from
// one seed: one instance stays on the heap, the other joins a workspace.
func workspaceCases() map[string]func() (Layer, *tensor.Tensor) {
	cfg := Tiny(1, 8, 2, 16, 4, true)
	hidden := func(seed uint64) *tensor.Tensor {
		return tensor.Randn(tensor.NewRNG(seed), 1, 2, cfg.SeqLen, cfg.Hidden)
	}
	return map[string]func() (Layer, *tensor.Tensor){
		"block": func() (Layer, *tensor.Tensor) { return NewBlock(tensor.NewRNG(1), cfg), hidden(2) },
		"checkpointed block": func() (Layer, *tensor.Tensor) {
			return NewCheckpoint(NewBlock(tensor.NewRNG(1), cfg)), hidden(2)
		},
		"bidirectional attention": func() (Layer, *tensor.Tensor) {
			return NewMultiHeadAttention(tensor.NewRNG(3), cfg.Hidden, cfg.Heads, false), hidden(4)
		},
		"embedding then head": func() (Layer, *tensor.Tensor) {
			r := tensor.NewRNG(5)
			l := NewSequential(NewEmbedding(r, cfg.Vocab, cfg.Hidden, cfg.SeqLen),
				NewLayerNorm(cfg.Hidden), NewLinear(r, cfg.Hidden, cfg.Vocab))
			return l, &tensor.Tensor{Shape: []int{2, 4}, Data: []float32{3, 1, 4, 1, 5, 9, 2, 6}}
		},
	}
}

// contextAllocs is what one forward+backward of each case allocates for
// its context structs (and their slices), measured; tensors add nothing.
var contextAllocs = map[string]float64{
	"block":                   20,
	"checkpointed block":      41,
	"bidirectional attention": 4,
	"embedding then head":     7,
}

// TestWorkspaceLayersMatchHeap: attached to a workspace whose free lists
// are poisoned with NaN, every layer produces the outputs, input gradients
// and parameter gradients of its heap twin bit for bit, round after round;
// every buffer is back before the round ends; and a warm round allocates
// its context structs and no tensor.
func TestWorkspaceLayersMatchHeap(t *testing.T) {
	for name, build := range workspaceCases() {
		t.Run(name, func(t *testing.T) {
			heap, x := build()
			pooled, _ := build()
			ws := &tensor.Workspace{}
			SetWorkspace(pooled, ws)
			targets := []int{1, 2, 3, 4, 5, 6, 7, 0}

			round := func(l Layer, ws *tensor.Workspace) (y, dx *tensor.Tensor) {
				out, ctx := l.Forward(x)
				y = out.Clone()
				dy := out
				if out.Dim(-1) == 16 { // logits: take the gradient from the loss
					_, dy = SoftmaxCrossEntropyIn(ws, out, targets)
					ws.Put(out)
				}
				g := l.Backward(ctx, dy)
				dx = g.Clone()
				ws.Put(dy)
				ws.Put(g)
				return y, dx
			}
			for i := 0; i < 3; i++ {
				wantY, wantDx := round(heap, nil)
				ws.Fill(float32(math.NaN()))
				gotY, gotDx := round(pooled, ws)
				sameBits(t, "output", gotY, wantY)
				sameBits(t, "input gradient", gotDx, wantDx)
				hp, pp := heap.Params(), pooled.Params()
				for j := range hp {
					sameBits(t, hp[j].Name+" gradient", pp[j].G, hp[j].G)
				}
				if n := ws.Sweep(); n != 0 {
					t.Fatalf("round %d left %d tensors out", i, n)
				}
			}
			warm := func() {
				out, ctx := pooled.Forward(x)
				g := pooled.Backward(ctx, out)
				ws.Put(out)
				ws.Put(g)
			}
			warm()
			// The heap twin allocates 170, 260, 88 and 37 objects: 3 per
			// tensor on top of the same contexts.
			if n := testing.AllocsPerRun(10, warm); n != contextAllocs[name] {
				t.Fatalf("a warm forward+backward allocates %.0f objects, want the %.0f of its contexts", n, contextAllocs[name])
			}
		})
	}
}

// TestDiscardReleasesContext: a context that will never see Backward (what
// Checkpoint does with its inner context on every forward) hands all its
// saved activations back.
func TestDiscardReleasesContext(t *testing.T) {
	for name, build := range workspaceCases() {
		l, x := build()
		ws := &tensor.Workspace{}
		SetWorkspace(l, ws)
		y, ctx := l.Forward(x)
		discard(l, ctx)
		ws.Put(y)
		if n := ws.Sweep(); n != 0 {
			t.Errorf("%s: discard left %d tensors out", name, n)
		}
	}
}

// TestDetachedContextReplays: without a workspace a context stays valid
// after Backward, which the finite-difference checks rely on; SetWorkspace
// with nil goes back to that behaviour.
func TestDetachedContextReplays(t *testing.T) {
	l, x := workspaceCases()["block"]()
	SetWorkspace(l, &tensor.Workspace{})
	SetWorkspace(l, nil)
	y, ctx := l.Forward(x)
	first := l.Backward(ctx, y)
	second := l.Backward(ctx, y)
	sameBits(t, "replayed input gradient", second, first)
}

// TestGELUSavedDerivativeBitIdentical: the derivative Forward saves from the
// tanh it already holds is the one Backward used to recompute from x — the
// same float64 expression rounded to float32 at the same point — so
// Backward's dy·d has not moved by a bit, at zero, deep in both tails and on
// denormals too; and off a workspace the context still replays.
func TestGELUSavedDerivativeBitIdentical(t *testing.T) {
	r := tensor.NewRNG(22)
	x := tensor.Randn(r, 3, 4, 64)
	copy(x.Data, []float32{0, float32(math.Copysign(0, -1)), 20, -20, 1e-40, -1e-40, math.SmallestNonzeroFloat32, 0.625, -0.625})
	dy := tensor.Randn(r, 1, 4, 64)

	want := tensor.New(4, 64)
	for i, v := range x.Data { // GELU.Backward as it was when it kept x
		xv := float64(v)
		u := geluC * (xv + 0.044715*xv*xv*xv)
		th := math.Tanh(u)
		du := geluC * (1 + 3*0.044715*xv*xv)
		d := 0.5*(1+th) + 0.5*xv*(1-th*th)*du
		want.Data[i] = dy.Data[i] * float32(d)
	}
	bits := func(what string, got *tensor.Tensor) {
		t.Helper()
		for i := range want.Data {
			if math.Float32bits(got.Data[i]) != math.Float32bits(want.Data[i]) {
				t.Fatalf("%s: dx[%d] at x = %g is %g, recomputing the derivative from x gives %g", what, i, x.Data[i], got.Data[i], want.Data[i])
			}
		}
	}
	_, ctx := GELU{}.Forward(x)
	bits("heap", GELU{}.Backward(ctx, dy))
	bits("heap, replayed", GELU{}.Backward(ctx, dy))

	g, ws := &GELU{}, &tensor.Workspace{}
	SetWorkspace(g, ws)
	for round := 0; round < 2; round++ {
		ws.Fill(float32(math.NaN()))
		y, ctx := g.Forward(x)
		dx := g.Backward(ctx, dy)
		bits("workspace", dx)
		ws.Put(y)
		ws.Put(dx)
		if n := ws.Sweep(); n != 0 {
			t.Fatalf("round %d left %d tensors out", round, n)
		}
	}
}

// pooledOfSize counts the tensors of n elements in ws's free lists: it
// marks every pooled buffer, then draws until one comes back unmarked
// (freshly allocated, so zero).
func pooledOfSize(ws *tensor.Workspace, n int) int {
	ws.Fill(1)
	var drawn []*tensor.Tensor
	for {
		t := ws.Get(n)
		drawn = append(drawn, t)
		if t.Data[0] != 1 {
			break
		}
	}
	for _, t := range drawn {
		ws.Put(t)
	}
	return len(drawn) - 1
}

// TestSequentialReleasesUnkeptInput: a Sequential hands a member's input
// back as soon as a member that keeps no reference to it (GELU) has run, and
// still returns every tensor exactly once — a second Put would panic — on
// each of the three ways a context ends. That early release is what pays
// for GELU's saved derivative: with four micro-batches in flight the MLP's
// [tokens, 4H] buffers number what they did when GELU kept x, nine.
func TestSequentialReleasesUnkeptInput(t *testing.T) {
	cases := workspaceCases()
	leaks := func(what string, ws *tensor.Workspace) {
		t.Helper()
		if n := ws.Sweep(); n != 0 {
			t.Fatalf("%s left %d tensors out", what, n)
		}
	}
	for _, name := range []string{"block", "checkpointed block"} {
		l, x := cases[name]()
		ws := &tensor.Workspace{}
		SetWorkspace(l, ws)
		for round := 0; round < 2; round++ {
			y, ctx := l.Forward(x)
			dx := l.Backward(ctx, y)
			ws.Put(y)
			ws.Put(dx)
			leaks(name+": Forward then Backward", ws)
		}
		y, ctx := l.Forward(x)
		discard(l, ctx)
		ws.Put(y)
		leaks(name+": Forward then discard", ws)
	}

	l, x := cases["block"]()
	ws := &tensor.Workspace{}
	SetWorkspace(l, ws)
	const inFlight = 4
	var ys [inFlight]*tensor.Tensor
	var ctxs [inFlight]Ctx
	for round := 0; round < 2; round++ {
		for i := range ys {
			ys[i], ctxs[i] = l.Forward(x)
		}
		for i := range ys {
			dx := l.Backward(ctxs[i], ys[i])
			ws.Put(ys[i])
			ws.Put(dx)
		}
		leaks("four micro-batches in flight", ws)
	}
	const wide, parent = 2 * 4 * 4 * 8, 9 // [b, s, 4H] elements; buffers when GELU kept x
	if n := pooledOfSize(ws, wide); n > parent {
		t.Fatalf("four in-flight micro-batches took %d [tokens, 4H] buffers, %d when GELU kept its input", n, parent)
	}
}
