package main

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

const (
	elasticDevices = 6
	elasticRows    = 8 // one batch: B·D micro-batches of one row on every plan of the grid
	healthySteps   = 2
)

func elasticModel() nn.Config { return nn.Tiny(14, 8, 2, 16, 4, true) }

// elasticSpace keeps both (P, D) pairs valid from six devices down to
// five, so one leave never empties the grid.
func elasticSpace() core.SearchSpace {
	return core.SearchSpace{
		PD:        [][2]int{{2, 2}, {4, 1}},
		Waves:     []int{1, 2},
		B:         4,
		MicroRows: 1,
		Workers:   1,
		TopK:      2,
	}
}

// elasticInst is elastic_recover. prep starts a fresh session and trains
// two healthy steps; the op is the step that loses a device mid-iteration
// and still returns a result: abort, drop the device, warm Rerank, rebuild,
// restore, retry.
type elasticInst struct {
	e     *env
	cl    *cluster.Cluster
	model nn.Config
	gen   *data.Generator

	sess       *core.ElasticSession
	first      core.Plan
	batches    [healthySteps + 1]*data.Batch
	preps      int // sessions started so far: walks the failure point
	dev, micro int
	res        *runtime.Result

	startMS, healthyMS, recoverMS, replanMS []float64
	sims, seeded                            float64
}

func elasticWorkload(name, why string) workload {
	return workload{name: name, why: why, setup: func(e *env) (instance, error) {
		s := &elasticInst{e: e, cl: cluster.TACC(elasticDevices), model: elasticModel()}
		s.gen = data.NewGenerator(e.in.DataSeed, s.model.Vocab, s.model.SeqLen)
		// One whole cycle up front: the cold rank, and proof the recovery
		// is exact before anything is timed.
		if err := s.prep(); err != nil {
			return nil, err
		}
		if err := s.op(); err != nil {
			return nil, err
		}
		if err := s.check(); err != nil {
			return nil, err
		}
		s.startMS, s.healthyMS, s.recoverMS, s.replanMS = nil, nil, nil, nil
		return s, nil
	}}
}

func (s *elasticInst) session() (*core.ElasticSession, error) {
	return core.NewElasticSession(nil, s.cl, s.model,
		core.ElasticOptions{Space: elasticSpace(), Seed: s.e.in.ModelSeed})
}

func (s *elasticInst) prep() error {
	t0 := time.Now()
	sess, err := s.session()
	if err != nil {
		return err
	}
	s.startMS = append(s.startMS, ms(time.Since(t0)))
	s.sess, s.first = sess, sess.Plan()
	for i := range s.batches {
		s.batches[i] = s.gen.Next(elasticRows)
	}
	for _, b := range s.batches[:healthySteps] {
		t0 = time.Now()
		if _, err := sess.Step(b); err != nil {
			return err
		}
		s.healthyMS = append(s.healthyMS, ms(time.Since(t0)))
	}
	point := s.e.in.FailStart + s.preps
	s.dev, s.micro = point%s.first.P, point/s.first.P%s.first.B
	s.preps++
	sess.FailNext(s.dev, s.micro)
	return nil
}

func (s *elasticInst) op() error {
	id := s.e.tr.begin("core.elastic_step")
	t0 := time.Now()
	res, err := s.sess.Step(s.batches[healthySteps])
	s.recoverMS = append(s.recoverMS, ms(time.Since(t0)))
	s.e.tr.end(id)
	s.res = res
	return err
}

// check holds the recovered session to the reference that never failed:
// the first plan's engine over the healthy batches, its weights restored
// into the post-failure plan's engine, the last batch trained there.
func (s *elasticInst) check() error {
	reps := s.sess.Reports()
	if len(reps) != 1 || reps[0].Trigger != "failure" || reps[0].Event.Dev != s.dev {
		return fmt.Errorf("replan history %+v, want one failure replan for device %d", reps, s.dev)
	}
	if n := s.sess.Cluster().N(); n != elasticDevices-1 {
		return fmt.Errorf("session cluster has %d devices after the failure, want %d", n, elasticDevices-1)
	}
	s.replanMS = append(s.replanMS, ms(reps[0].Elapsed))
	// What a re-rank has to simulate depends on which device is gone, so the
	// counts reported are those of one device, the first op's: exact for a seed.
	if s.dev == s.e.in.FailStart%s.first.P {
		s.sims = float64(reps[0].Stats.SeedSims + reps[0].Stats.SweepSims)
		s.seeded = float64(reps[0].Stats.Seeded)
	}

	engA, err := s.first.Engine(s.e.in.ModelSeed, nil)
	if err != nil {
		return err
	}
	for _, b := range s.batches[:healthySteps] {
		if _, err := engA.Step(b); err != nil {
			return err
		}
	}
	engB, err := reps[0].To.Engine(s.e.in.ModelSeed, nil)
	if err != nil {
		return err
	}
	if err := engB.Restore(engA.Snapshot()); err != nil {
		return err
	}
	want, err := engB.Step(s.batches[healthySteps])
	if err != nil {
		return err
	}
	if s.res.Loss != want.Loss {
		return fmt.Errorf("retried step loss %v, never-failed reference %v", s.res.Loss, want.Loss)
	}
	if !tensorsEqual(s.sess.Engine().Snapshot(), engB.Snapshot()) {
		return fmt.Errorf("recovered parameters differ from the never-failed reference (failure at device %d, micro-batch %d)", s.dev, s.micro)
	}
	return nil
}

func tensorsEqual(a, b []*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Data) != len(b[i].Data) {
			return false
		}
		for j, v := range a[i].Data {
			if v != b[i].Data[j] {
				return false
			}
		}
	}
	return true
}

func (s *elasticInst) close() error { return nil }

func (s *elasticInst) layers(budget time.Duration, m *metricSet) error {
	rec, replan, healthy := median(s.recoverMS), median(s.replanMS), median(s.healthyMS)
	m.set("core.session_start_ms", median(s.startMS))
	m.set("core.healthy_step_ms", healthy)
	m.set("core.replan_ms", replan)
	m.set("core.rerank_sims", s.sims)
	m.set("core.rerank_seeded", s.seeded)
	// What is left of a recovery once the replan and the retried step are
	// taken out: the aborted partial step, teardown and the device drop.
	m.set("runtime.abort_ms", rec-replan-healthy)

	// The same replan reached through a notified leave at the iteration
	// boundary: no abort, no retry.
	leave := cluster.Event{Kind: cluster.DeviceLeave, Dev: elasticDevices - 1}
	var eventMS []float64
	deadline := time.Now().Add(budget / 3)
	for len(eventMS) < 3 || time.Now().Before(deadline) {
		sess, err := s.session()
		if err != nil {
			return err
		}
		if _, err := sess.Step(s.batches[0]); err != nil {
			return err
		}
		sess.Notify(leave)
		if _, err := sess.Step(s.batches[1]); err != nil {
			return err
		}
		reps := sess.Reports()
		if len(reps) != 1 || reps[0].Trigger != "event" {
			return fmt.Errorf("notified leave produced replan history %+v", reps)
		}
		eventMS = append(eventMS, ms(reps[0].Elapsed))
	}
	m.set("core.event_replan_ms", median(eventMS))

	const batch = 100
	d, err := timeMedian(budget/6, 5, func() error {
		for i := 0; i < batch; i++ {
			if _, err := s.cl.Apply(leave); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("cluster.apply_us", float64(d)/1e3/batch)
	nnProbes(s.model, 1, budget/6, m)
	return nil
}
