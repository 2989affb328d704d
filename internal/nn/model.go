package nn

import (
	"fmt"

	"repro/internal/tensor"
)

// Config describes a transformer model. The two paper configurations from
// §5 (BERT-style 64×2560 and GPT-style 128×1024) are used analytically for
// memory and cost modelling; Tiny configs are trained for real by the
// runtime tests and examples.
type Config struct {
	Name   string
	Layers int // number of transformer blocks
	Hidden int
	Heads  int
	Vocab  int
	SeqLen int
	Causal bool // GPT-style masking when true
}

// BERTStyle is the paper's BERT-like model: 64 layers, 64 heads, hidden 2560.
func BERTStyle() Config {
	return Config{Name: "bert-64L", Layers: 64, Hidden: 2560, Heads: 64,
		Vocab: 32768, SeqLen: 512, Causal: false}
}

// GPTStyle is the paper's GPT-like model: 128 layers, 16 heads, hidden 1024.
func GPTStyle() Config {
	return Config{Name: "gpt-128L", Layers: 128, Hidden: 1024, Heads: 16,
		Vocab: 50257, SeqLen: 1024, Causal: true}
}

// Tiny returns a trainable miniature with the given depth, used by tests,
// examples and the real runtime.
func Tiny(layers, hidden, heads, vocab, seq int, causal bool) Config {
	return Config{Name: fmt.Sprintf("tiny-%dL", layers), Layers: layers,
		Hidden: hidden, Heads: heads, Vocab: vocab, SeqLen: seq, Causal: causal}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	switch {
	case c.Layers <= 0:
		return fmt.Errorf("nn: config %q: Layers must be positive", c.Name)
	case c.Hidden <= 0 || c.Heads <= 0 || c.Hidden%c.Heads != 0:
		return fmt.Errorf("nn: config %q: Hidden %d must be a positive multiple of Heads %d", c.Name, c.Hidden, c.Heads)
	case c.Vocab <= 0 || c.SeqLen <= 0:
		return fmt.Errorf("nn: config %q: Vocab and SeqLen must be positive", c.Name)
	}
	return nil
}

// NewBlock builds one pre-norm transformer block:
// x + MHA(LN(x)) followed by x + MLP(LN(x)) with a 4× GELU MLP.
func NewBlock(r *tensor.RNG, cfg Config) Layer {
	attn := NewSequential(
		NewLayerNorm(cfg.Hidden),
		NewMultiHeadAttention(r, cfg.Hidden, cfg.Heads, cfg.Causal),
	)
	mlp := NewSequential(
		NewLayerNorm(cfg.Hidden),
		NewLinear(r, cfg.Hidden, 4*cfg.Hidden),
		&GELU{},
		NewLinear(r, 4*cfg.Hidden, cfg.Hidden),
	)
	return NewSequential(NewResidual(attn), NewResidual(mlp))
}

// Model is a full transformer as an ordered list of units:
// unit 0 is the embedding, units 1..Layers are blocks, the last unit is the
// final LayerNorm + LM head. The pipeline partitions units contiguously.
type Model struct {
	Config Config
	Units  []Layer
}

// Build constructs a model deterministically from the rng.
func Build(r *tensor.RNG, cfg Config) *Model {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	units := make([]Layer, 0, cfg.Layers+2)
	units = append(units, NewEmbedding(r, cfg.Vocab, cfg.Hidden, cfg.SeqLen))
	for i := 0; i < cfg.Layers; i++ {
		units = append(units, NewBlock(r, cfg))
	}
	units = append(units, NewSequential(
		NewLayerNorm(cfg.Hidden),
		NewLinear(r, cfg.Hidden, cfg.Vocab),
	))
	return &Model{Config: cfg, Units: units}
}

// Params returns all parameters of the model in unit order.
func (m *Model) Params() []*Param {
	var ps []*Param
	for _, u := range m.Units {
		ps = append(ps, u.Params()...)
	}
	return ps
}

// PartitionUnits splits n units into s contiguous groups whose sizes differ
// by at most one (the first n%s groups get the extra unit). It returns the
// start index of each group plus a final sentinel equal to n.
func PartitionUnits(n, s int) []int {
	if s <= 0 || n < s {
		panic(fmt.Sprintf("nn: cannot partition %d units into %d stages", n, s))
	}
	bounds := make([]int, s+1)
	base, extra := n/s, n%s
	idx := 0
	for g := 0; g < s; g++ {
		bounds[g] = idx
		idx += base
		if g < extra {
			idx++
		}
	}
	bounds[s] = n
	return bounds
}

// Stage bundles the units of one pipeline stage.
type Stage struct {
	Index int
	Seq   *Sequential
}

// Forward runs the stage.
func (st *Stage) Forward(x *tensor.Tensor) (*tensor.Tensor, Ctx) { return st.Seq.Forward(x) }

// Backward runs the stage backward.
func (st *Stage) Backward(ctx Ctx, dy *tensor.Tensor) *tensor.Tensor {
	return st.Seq.Backward(ctx, dy)
}

// Params returns the stage parameters.
func (st *Stage) Params() []*Param { return st.Seq.Params() }

// SetWorkspace attaches every layer of the stage to ws, the workspace of
// the one worker that runs this stage; nil detaches.
func (st *Stage) SetWorkspace(ws *tensor.Workspace) { st.Seq.setWorkspace(ws) }

// Split partitions the model into s stages of contiguous units.
func (m *Model) Split(s int) []*Stage {
	bounds := PartitionUnits(len(m.Units), s)
	stages := make([]*Stage, s)
	for i := 0; i < s; i++ {
		stages[i] = &Stage{Index: i, Seq: NewSequential(m.Units[bounds[i]:bounds[i+1]]...)}
	}
	return stages
}
