package nn

import (
	"math"
	"testing"

	"repro/internal/tensor"
)

func TestCheckpointMatchesPlainLayer(t *testing.T) {
	r := tensor.NewRNG(30)
	cfg := Tiny(1, 8, 2, 16, 4, true)
	plain := NewBlock(r, cfg)
	ckpt := NewCheckpoint(NewBlock(tensor.NewRNG(30), cfg)) // same init

	x := tensor.Randn(tensor.NewRNG(31), 0.5, 1, 3, 8)
	dy := tensor.Randn(tensor.NewRNG(32), 1, 1, 3, 8)

	y1, c1 := plain.Forward(x)
	dx1 := plain.Backward(c1, dy)
	y2, c2 := ckpt.Forward(x)
	dx2 := ckpt.Backward(c2, dy)

	if d := tensor.MaxAbsDiff(y1, y2); d != 0 {
		t.Fatalf("forward diff %g", d)
	}
	if d := tensor.MaxAbsDiff(dx1, dx2); d > 1e-6 {
		t.Fatalf("input grad diff %g", d)
	}
	p1, p2 := plain.Params(), ckpt.Params()
	for i := range p1 {
		if d := tensor.MaxAbsDiff(p1[i].G, p2[i].G); d > 1e-6 {
			t.Fatalf("param %d grad diff %g", i, d)
		}
	}
}

func TestCheckpointModelTrains(t *testing.T) {
	cfg := Tiny(2, 8, 2, 16, 4, true)
	m := CheckpointModel(Build(tensor.NewRNG(33), cfg))
	whole := NewSequential(m.Units...)
	r := tensor.NewRNG(34)
	ids := tensor.New(2, 4)
	for i := range ids.Data {
		ids.Data[i] = float32(r.Intn(cfg.Vocab))
	}
	targets := make([]int, 8)
	for i := range targets {
		targets[i] = r.Intn(cfg.Vocab)
	}
	opt := NewAdam(0.02)
	var first, last float64
	for it := 0; it < 20; it++ {
		y, ctx := whole.Forward(ids)
		loss, d := SoftmaxCrossEntropy(y, targets)
		if it == 0 {
			first = loss
		}
		last = loss
		whole.Backward(ctx, d)
		opt.Step(whole.Params())
	}
	if last >= first {
		t.Fatalf("checkpointed model did not learn: %g -> %g", first, last)
	}
}

func TestWarmupCosineShape(t *testing.T) {
	s := WarmupCosine{Warmup: 10, Total: 110, MinFactor: 0.1}
	if f := s.Factor(0); f <= 0 || f > 0.2 {
		t.Fatalf("warmup start factor %g", f)
	}
	if f := s.Factor(9); math.Abs(f-1) > 1e-9 {
		t.Fatalf("end of warmup factor %g", f)
	}
	mid := s.Factor(60)
	if mid >= 1 || mid <= 0.1 {
		t.Fatalf("mid decay factor %g", mid)
	}
	if f := s.Factor(200); f != 0.1 {
		t.Fatalf("post-total factor %g", f)
	}
	// Monotone decreasing after warmup.
	prev := 2.0
	for st := 10; st < 110; st += 10 {
		f := s.Factor(st)
		if f > prev {
			t.Fatalf("not monotone at %d: %g > %g", st, f, prev)
		}
		prev = f
	}
}

// halving is a test LRSchedule: the rate halves after every step.
type halving struct{}

func (halving) Factor(step int) float64 { return math.Pow(0.5, float64(step)) }

func TestScheduledOptimizerAppliesFactor(t *testing.T) {
	base := NewSGD(1.0, 0)
	sched := NewScheduled(base, halving{})
	p := newParam("p", tensor.Ones(1))
	// Step 0: factor 1 → lr 1; step 1: factor 0.5.
	p.G.Data[0] = 1
	sched.Step([]*Param{p})
	if math.Abs(float64(p.W.Data[0])-0) > 1e-6 {
		t.Fatalf("after step0 w=%g want 0", p.W.Data[0])
	}
	p.G.Data[0] = 1
	sched.Step([]*Param{p})
	if math.Abs(float64(p.W.Data[0])+0.5) > 1e-6 {
		t.Fatalf("after step1 w=%g want -0.5", p.W.Data[0])
	}
}

func TestScheduledOptimizerRejectsUnknown(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewScheduled(nopOptExtras{}, halving{})
}

type nopOptExtras struct{}

func (nopOptExtras) Step([]*Param) {}
