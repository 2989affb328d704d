package core

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/runtime"
)

// ReplanReport records one drain-and-replan cycle: what triggered it,
// which plan it moved training to, what the replanning sweep cost, and
// how long the whole cycle took (re-rank and engine reshape) — the
// replanning latency the elastic serving skin reports against a cold
// sweep.
type ReplanReport struct {
	Event   cluster.Event
	Trigger string // "event" (notified churn) or "failure" (mid-step device loss)
	From    Plan
	To      Plan
	Stats   RerankStats
	Elapsed time.Duration
}

// ElasticOptions configures an ElasticSession.
type ElasticOptions struct {
	// Space is the configuration grid replanning searches. Its PD pairs
	// must stay valid (see the SearchSpace.PD contract) across every
	// membership state the session will visit.
	Space SearchSpace
	// Seed initializes model weights (replans keep the trained weights).
	Seed uint64
	// NewOptimizer builds the engine's per-replica optimizers; nil means
	// the default momentum-free SGD. A replan reshapes the engine, which
	// builds fresh optimizers, so a stateful optimizer (momentum) loses its
	// state at a replan; the default is stateless and replans are then
	// exact.
	NewOptimizer func() nn.Optimizer
}

// ElasticSession is the drain-and-replan recovery loop (the paper's
// fault-reaction story made executable): it trains under the best plan
// AutoTune found, absorbs membership events between iterations, and
// reacts to mid-step device failures — in both cases draining to the
// flush barrier, re-ranking via Tuner.Rerank, and resuming on the same
// engine reshaped onto the new plan, with bit-identical parameters.
//
// Iteration boundaries are the drain points: a notified event is applied
// before the next Step begins (the previous flush barrier already joined
// every worker), and a device failure aborts the in-flight iteration,
// which by construction has not touched parameters or optimizer state, so
// the same batch is retried on the replanned engine. Either way the
// training trajectory is exactly the one an engine on the new plan would
// have produced from the same weights — the FP-parity property the
// elastic tests pin.
//
// Pipeline rank within a replica is identified with the cluster device of
// the same index: a failure of rank d is modeled as cluster device d
// leaving. Batches handed to Step must split evenly into B·D micro-
// batches for every plan the space can select.
type ElasticSession struct {
	tuner   *Tuner
	model   nn.Config
	opts    ElasticOptions
	cl      *cluster.Cluster
	plan    Plan
	eng     *runtime.Engine
	pending []cluster.Event
	reports []ReplanReport
}

// NewElasticSession ranks the space on cl with Rerank and builds the
// engine for the winner. The tuner is retained for every subsequent
// replan, so its cross-sweep cache keeps amortizing as the membership
// churns; nil gets a private tuner.
func NewElasticSession(t *Tuner, cl *cluster.Cluster, model nn.Config, opts ElasticOptions) (*ElasticSession, error) {
	if t == nil {
		t = NewTuner(TunerOptions{})
	}
	s := &ElasticSession{tuner: t, model: model, opts: opts, cl: cl}
	ranking, _ := t.Rerank(cl, model, opts.Space)
	best, err := firstFeasible(ranking)
	if err != nil {
		return nil, err
	}
	eng, err := best.Plan.Engine(opts.Seed, opts.NewOptimizer)
	if err != nil {
		return nil, err
	}
	s.plan, s.eng = best.Plan, eng
	return s, nil
}

// firstFeasible returns the best fully evaluated candidate of a ranking.
func firstFeasible(ranking []Candidate) (Candidate, error) {
	for _, c := range ranking {
		if c.Err == nil && !c.OOM && !c.Failed && !c.BoundPruned && c.Throughput > 0 {
			return c, nil
		}
	}
	return Candidate{}, fmt.Errorf("core: no feasible plan in ranking of %d candidates", len(ranking))
}

// Notify queues a membership event; it is applied — drain, replan,
// restore — at the start of the next Step, the first point where the
// engine is guaranteed to be at a flush barrier.
func (s *ElasticSession) Notify(ev cluster.Event) { s.pending = append(s.pending, ev) }

// FailNext arms a one-shot device failure on the engine: the next compute
// op of micro-batch micro on pipeline rank dev dies mid-step, and the
// following Step exercises the full abort–replan–retry path. A replan for
// a queued event, which that Step runs first, disarms it.
func (s *ElasticSession) FailNext(dev, micro int) { s.eng.InjectFailure(dev, micro) }

// Plan returns the plan the session is currently training under.
func (s *ElasticSession) Plan() Plan { return s.plan }

// Cluster returns the current membership state.
func (s *ElasticSession) Cluster() *cluster.Cluster { return s.cl }

// Engine exposes the live engine (for parameter inspection in tests and
// loss evaluation in callers). It is the same engine for the session's
// life: every replan reshapes it onto the new plan.
func (s *ElasticSession) Engine() *runtime.Engine { return s.eng }

// Reports returns the replan history, oldest first.
func (s *ElasticSession) Reports() []ReplanReport { return s.reports }

// Step runs one training iteration, absorbing queued membership events
// first and recovering from a mid-step device failure by draining,
// replanning without the dead device, and retrying the same batch. Only
// a replan that succeeds clears the queue: while no plan fits the queued
// membership every Step fails, until a Notify (a join) makes one feasible.
// An event the cluster cannot apply is dropped from the queue.
func (s *ElasticSession) Step(batch *data.Batch) (*runtime.Result, error) {
	if len(s.pending) > 0 {
		cl := s.cl
		for i, ev := range s.pending {
			next, err := cl.Apply(ev)
			if err != nil {
				s.pending = slices.Delete(s.pending, i, i+1)
				return nil, fmt.Errorf("core: elastic event %s: %w", ev, err)
			}
			cl = next
		}
		if err := s.replan(cl, s.pending[len(s.pending)-1], "event"); err != nil {
			return nil, err
		}
		s.pending = nil
	}
	res, err := s.eng.Step(batch)
	var de *runtime.DeviceError
	if errors.As(err, &de) {
		if err := s.dropFailed(de); err != nil {
			return nil, err
		}
		res, err = s.eng.Step(batch)
	}
	return res, err
}

// dropFailed recovers from a mid-step device failure up to the retry.
// Drain already happened: the concurrent driver joined every worker on the
// cancellation path, and the failed iteration never reached the
// all-reduce, so parameters and optimizer state are exactly the pre-step
// state. It clears the partial gradients and in-flight messages, drops the
// dead device and replans. The device is gone whether or not a plan fits
// without it, so a failed replan queues its leave for the next Step.
func (s *ElasticSession) dropFailed(de *runtime.DeviceError) error {
	s.eng.AbortReset()
	ev := cluster.Event{Kind: cluster.DeviceLeave, Dev: de.Dev}
	cl, err := s.cl.Apply(ev)
	if err != nil {
		return fmt.Errorf("core: dropping failed device %d: %w", de.Dev, err)
	}
	if err := s.replan(cl, ev, "failure"); err != nil {
		s.pending = append(s.pending, ev)
		return err
	}
	return nil
}

// replan moves the session to cluster cl: re-rank the space on it, then
// reshape the drained engine onto the winner.
func (s *ElasticSession) replan(cl *cluster.Cluster, ev cluster.Event, trigger string) error {
	t0 := time.Now()
	ranking, stats := s.tuner.Rerank(cl, s.model, s.opts.Space)
	best, err := firstFeasible(ranking)
	if err != nil {
		return fmt.Errorf("core: replan after %s: %w", ev, err)
	}
	sch, err := best.Plan.Schedule()
	if err != nil {
		return fmt.Errorf("core: replan after %s: %w", ev, err)
	}
	if err := s.eng.Reshape(sch, best.Plan.D); err != nil {
		return fmt.Errorf("core: replan after %s: %w", ev, err)
	}
	s.reports = append(s.reports, ReplanReport{
		Event: ev, Trigger: trigger, From: s.plan, To: best.Plan,
		Stats: stats, Elapsed: time.Since(t0),
	})
	s.cl, s.plan = cl, best.Plan
	return nil
}
