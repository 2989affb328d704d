// Package data generates synthetic language-modelling workloads. The paper
// trains on text corpora; what the schedule cares about is only the token
// stream shape ([batch, seq] ids plus next-token targets), so a seeded
// Markov-ish synthetic stream preserves the relevant behaviour while keeping
// runs deterministic.
package data

import (
	"fmt"

	"repro/internal/tensor"
)

// Batch is one training batch: token ids [B,S] and flat targets (len B*S).
type Batch struct {
	Inputs  *tensor.Tensor
	Targets []int
}

// Generator produces deterministic synthetic batches.
type Generator struct {
	Vocab, Seq int
	rng        *tensor.RNG
}

// NewGenerator returns a generator for the given vocab/sequence shape.
func NewGenerator(seed uint64, vocab, seq int) *Generator {
	if vocab < 2 || seq < 1 {
		panic(fmt.Sprintf("data: invalid vocab=%d seq=%d", vocab, seq))
	}
	return &Generator{Vocab: vocab, Seq: seq, rng: tensor.NewRNG(seed)}
}

// Next returns a batch of b sequences. Tokens follow a skewed random walk
// (token_{t+1} depends on token_t) so that the model has learnable signal,
// and targets are the shifted-by-one next tokens (LM objective).
func (g *Generator) Next(b int) *Batch {
	inputs := tensor.New(b, g.Seq)
	targets := make([]int, b*g.Seq)
	for i := 0; i < b; i++ {
		tok := g.rng.Intn(g.Vocab)
		for t := 0; t < g.Seq; t++ {
			inputs.Data[i*g.Seq+t] = float32(tok)
			// Learnable transition: mostly +1 mod V, sometimes random.
			var next int
			if g.rng.Float64() < 0.8 {
				next = (tok + 1) % g.Vocab
			} else {
				next = g.rng.Intn(g.Vocab)
			}
			targets[i*g.Seq+t] = next
			tok = next
		}
	}
	return &Batch{Inputs: inputs, Targets: targets}
}

// SplitMicro splits a batch of B sequences into n micro-batches of equal
// size; B must be divisible by n. The micro-batches are views: they share
// b's token and target storage.
func SplitMicro(b *Batch, n int) []*Batch { return SplitMicroInto(nil, b, n) }

// SplitMicroInto is SplitMicro reusing dst's batches and view tensors when
// it already holds n of them, so splitting every step's batch allocates
// nothing after the first. It returns the n views, valid while b is.
func SplitMicroInto(dst []*Batch, b *Batch, n int) []*Batch {
	rows := b.Inputs.Shape[0]
	if rows%n != 0 {
		panic(fmt.Sprintf("data: batch %d not divisible into %d micro-batches", rows, n))
	}
	seq := b.Inputs.Shape[1]
	per := rows / n
	for len(dst) < n {
		dst = append(dst, &Batch{Inputs: &tensor.Tensor{Shape: make([]int, 2)}})
	}
	dst = dst[:n]
	for i, mb := range dst {
		mb.Inputs.Shape[0], mb.Inputs.Shape[1] = per, seq
		mb.Inputs.Data = b.Inputs.Data[i*per*seq : (i+1)*per*seq]
		mb.Targets = b.Targets[i*per*seq : (i+1)*per*seq]
	}
	return dst
}
