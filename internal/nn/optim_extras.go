package nn

import "math"

// LRSchedule maps a step index to a learning-rate multiplier.
type LRSchedule interface {
	Factor(step int) float64
}

// WarmupCosine is the standard transformer schedule: linear warmup to 1
// over Warmup steps, then cosine decay to MinFactor at Total steps.
type WarmupCosine struct {
	Warmup    int
	Total     int
	MinFactor float64
}

// Factor implements LRSchedule.
func (s WarmupCosine) Factor(step int) float64 {
	if s.Warmup > 0 && step < s.Warmup {
		return float64(step+1) / float64(s.Warmup)
	}
	if step >= s.Total {
		return s.MinFactor
	}
	span := float64(s.Total - s.Warmup)
	progress := float64(step-s.Warmup) / math.Max(span, 1)
	cos := 0.5 * (1 + math.Cos(math.Pi*progress))
	return s.MinFactor + (1-s.MinFactor)*cos
}

// ScheduledOptimizer wraps an optimizer with a learning-rate schedule. It
// supports SGD and Adam (the two optimizers this package provides).
type ScheduledOptimizer struct {
	Base     Optimizer
	Schedule LRSchedule
	step     int
	baseLR   float64
}

// NewScheduled wraps base; base must be *SGD or *Adam.
func NewScheduled(base Optimizer, sched LRSchedule) *ScheduledOptimizer {
	s := &ScheduledOptimizer{Base: base, Schedule: sched}
	switch o := base.(type) {
	case *SGD:
		s.baseLR = o.LR
	case *Adam:
		s.baseLR = o.LR
	default:
		panic("nn: NewScheduled supports *SGD and *Adam")
	}
	return s
}

// Step applies the scheduled rate then delegates.
func (s *ScheduledOptimizer) Step(params []*Param) {
	f := s.Schedule.Factor(s.step)
	switch o := s.Base.(type) {
	case *SGD:
		o.LR = s.baseLR * f
	case *Adam:
		o.LR = s.baseLR * f
	}
	s.Base.Step(params)
	s.step++
}
