package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/comm"
	"repro/internal/costmodel"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// The train_step shape: a 16-unit model cut into 16 stages by two waves on
// four devices, two data-parallel replicas so the gradient all-reduce is
// on the path, four micro-batches of two rows per replica.
const (
	trainP, trainD, trainB = 4, 2, 4
	trainRows              = 16
	parityStepsN           = 2
)

func trainModel() nn.Config { return nn.Tiny(14, 32, 2, 64, 16, true) }

// serialTrainer is the plain single-worker run of the same task: the whole
// model on one device, the micro-batches in sequence, the same loss
// scaling and optimizer as the engine.
type serialTrainer struct {
	whole  *nn.Sequential
	opt    nn.Optimizer
	micros int
}

func newSerialTrainer(cfg nn.Config, seed uint64, micros int) *serialTrainer {
	m := nn.Build(tensor.NewRNG(seed), cfg)
	return &serialTrainer{whole: nn.NewSequential(m.Units...), opt: nn.NewSGD(0.1, 0), micros: micros}
}

func (t *serialTrainer) step(batch *data.Batch) float64 {
	scale := 1 / float32(t.micros)
	var loss float64
	for _, mb := range data.SplitMicro(batch, t.micros) {
		y, ctx := t.whole.Forward(mb.Inputs)
		l, d := nn.SoftmaxCrossEntropy(y, mb.Targets)
		loss += l
		tensor.ScaleInPlace(d, scale)
		t.whole.Backward(ctx, d)
	}
	t.opt.Step(t.whole.Params())
	return loss / float64(t.micros)
}

// trainInst is train_step: one synchronous training iteration per op on a
// fresh batch, as a training job issues them.
type trainInst struct {
	e     *env
	cfg   nn.Config
	sch   *sched.Schedule
	eng   *runtime.Engine
	gen   *data.Generator
	batch *data.Batch
	res   *runtime.Result

	prev              []comm.Stats // cumulative router counters after the previous step
	busyShare         []float64
	msgs, bytes, wait []float64
	hits, waits       float64
	peakActKB         float64
}

func trainWorkload(name, why string) workload {
	return workload{name: name, why: why, setup: func(e *env) (instance, error) {
		s := &trainInst{e: e, cfg: trainModel()}
		var err error
		if s.sch, err = sched.Hanayo(trainP, 2, trainB); err != nil {
			return nil, err
		}
		if s.eng, err = s.engine(s.sch); err != nil {
			return nil, err
		}
		s.gen = data.NewGenerator(e.in.DataSeed, s.cfg.Vocab, s.cfg.SeqLen)
		// The pipelined loss sequence must equal the single-worker run's to
		// rounding: the schedule reorders the arithmetic, nothing else.
		serial := newSerialTrainer(s.cfg, e.in.ModelSeed, trainB*trainD)
		for i := 0; i < parityStepsN; i++ {
			batch := s.gen.Next(trainRows)
			res, err := s.eng.Step(batch)
			if err != nil {
				return nil, err
			}
			s.prev = res.CommStats
			if want := serial.step(batch); math.Abs(res.Loss-want) > 1e-4*math.Max(1, math.Abs(want)) {
				return nil, fmt.Errorf("step %d: pipelined loss %v, single-worker %v", i, res.Loss, want)
			}
		}
		return s, nil
	}}
}

func (s *trainInst) engine(sch *sched.Schedule) (*runtime.Engine, error) {
	return runtime.New(runtime.Config{Schedule: sch, Model: s.cfg, DP: trainD, Seed: s.e.in.ModelSeed})
}

func (s *trainInst) prep() error {
	s.batch = s.gen.Next(trainRows)
	return nil
}

func (s *trainInst) op() error {
	tr := s.e.tr
	id := tr.begin("runtime.step")
	base := tr.now()
	res, err := s.eng.Step(s.batch)
	tr.end(id)
	if err != nil {
		return err
	}
	s.res = res
	if tr == nil {
		return nil
	}
	// Replica 0's compute timeline, one lane per device, under the step.
	wall := float64(tr.spans[id].end-tr.spans[id].start) / 1e9
	var busy float64
	for d, recs := range res.Records {
		for _, r := range recs {
			tr.add("exec.compute", id, 100+d, base, r.Start, r.End)
			busy += r.End - r.Start
		}
	}
	s.busyShare = append(s.busyShare, busy/(float64(len(res.Records))*wall))
	var msgs, bytes, hits, waits int64
	var wait time.Duration
	for i, st := range res.CommStats {
		msgs += st.Messages - s.prev[i].Messages
		bytes += st.Bytes - s.prev[i].Bytes
		hits += st.PrefetchHits - s.prev[i].PrefetchHits
		waits += st.RecvWaits - s.prev[i].RecvWaits
		wait += st.WaitTime - s.prev[i].WaitTime
	}
	s.msgs, s.bytes = append(s.msgs, float64(msgs)), append(s.bytes, float64(bytes))
	s.wait = append(s.wait, ms(wait))
	s.hits, s.waits = s.hits+float64(hits), s.waits+float64(waits)
	for _, pk := range res.PeakActBytes {
		s.peakActKB = max(s.peakActKB, float64(pk)/1024)
	}
	return nil
}

func (s *trainInst) check() error {
	s.prev = s.res.CommStats
	if l := s.res.Loss; math.IsNaN(l) || math.IsInf(l, 0) || l <= 0 {
		return fmt.Errorf("step loss %v", l)
	}
	return nil
}

func (s *trainInst) close() error { return nil }

func (s *trainInst) layers(budget time.Duration, m *metricSet) error {
	step := median(s.e.tr.perOp()["runtime.step"])
	m.set("runtime.step_ms", step)
	busy := median(s.busyShare)
	m.set("runtime.busy_share", busy)
	m.set("runtime.idle_share", 1-busy)
	m.set("runtime.peak_act_kb", s.peakActKB)
	m.set("comm.messages_per_step", median(s.msgs))
	m.set("comm.bytes_per_step", median(s.bytes))
	m.set("comm.wait_ms_per_step", median(s.wait))
	if s.hits+s.waits > 0 {
		m.set("comm.prefetch_hit_share", s.hits/(s.hits+s.waits))
	}
	// The schedule's own bubble in simulated time (uniform stages, free
	// communication): what the idle share would be with a core per device.
	sr, err := sim.Run(s.sch, costmodel.Uniform{Tf: 1, Tb: 2}, sim.DefaultOptions())
	if err != nil {
		return err
	}
	m.set("exec.sim_idle_delta", 1-busy-sr.BubbleRatio())

	each := budget / 5
	batch := s.gen.Next(trainRows)
	for _, alt := range []struct {
		metric string
		build  func() (*sched.Schedule, error)
	}{
		{"runtime.step_ms.dapple", func() (*sched.Schedule, error) { return sched.DAPPLE(trainP, trainB) }},
		{"runtime.step_ms.zbh1", func() (*sched.Schedule, error) { return sched.ZBH1(trainP, trainB) }},
	} {
		sch, err := alt.build()
		if err != nil {
			return err
		}
		eng, err := s.engine(sch)
		if err != nil {
			return err
		}
		d, err := timeMedian(each, 3, func() error { _, err := eng.Step(batch); return err })
		if err != nil {
			return err
		}
		m.set(alt.metric, ms(d))
	}
	serial := newSerialTrainer(s.cfg, s.e.in.ModelSeed, trainB*trainD)
	d, _ := timeMedian(each, 3, func() error { serial.step(batch); return nil })
	m.set("runtime.single_worker_step_ms", ms(d))
	if step > 0 {
		m.set("runtime.pipeline_speedup_x", ms(d)/step)
	}
	nnProbes(s.cfg, trainRows/(trainB*trainD), each, m)
	return nil
}

// nnProbes times the kernels under a training step on the model's own
// shapes: the MLP up-projection (its largest matmul) and one transformer
// block forward plus backward on one micro-batch.
func nnProbes(cfg nn.Config, microRows int, budget time.Duration, m *metricSet) {
	r := tensor.NewRNG(1)
	rows, k, n := microRows*cfg.SeqLen, cfg.Hidden, 4*cfg.Hidden
	a, b := tensor.Randn(r, 1, rows, k), tensor.Randn(r, 1, k, n)
	const batch = 100
	d, _ := timeMedian(budget/2, 5, func() error {
		for i := 0; i < batch; i++ {
			tensor.MatMul(a, b)
		}
		return nil
	})
	m.set("tensor.matmul_gflops", 2*float64(rows*k*n)*batch/float64(d))

	blk := nn.NewBlock(r, cfg)
	x := tensor.Randn(r, 1, microRows, cfg.SeqLen, cfg.Hidden)
	d, _ = timeMedian(budget/2, 5, func() error {
		y, ctx := blk.Forward(x)
		blk.Backward(ctx, y)
		return nil
	})
	m.set("nn.fwd_bwd_ms", ms(d))
}
