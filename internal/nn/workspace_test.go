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
			return l, tensor.FromSlice([]float32{3, 1, 4, 1, 5, 9, 2, 6}, 2, 4)
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
