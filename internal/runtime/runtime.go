// Package runtime is Hanayo's pipeline execution engine (paper §4): it
// executes the per-device action lists over real transformer stages, with
// one goroutine per (replica, device), the comm router as transport, data
// parallel gradient all-reduce at the flush, and an optimizer step. It is
// the correctness executor and the real-tensor backend of the shared
// internal/exec interpreter (internal/sim is the timing backend of the
// same interpreter): tests prove that every schedule trains with gradients
// numerically equal to a serial single-device reference.
package runtime

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/comm"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Config assembles an engine.
type Config struct {
	Schedule *sched.Schedule
	Model    nn.Config
	DP       int    // data-parallel replicas (≥1)
	Seed     uint64 // model init seed (identical across replicas)
	// NewOptimizer builds one optimizer per replica; nil means SGD(0.1).
	NewOptimizer func() nn.Optimizer
	// Checkpoint enables activation checkpointing on every model unit
	// (paper §6's combinable memory-saving technique): stages keep only
	// boundary tensors and recompute internals during backward.
	Checkpoint bool
}

// replica is one pipeline's worth of model state.
type replica struct {
	// models[copy] owns the weights and gradients for the engine's life;
	// stageInst[copy][stage] is its current split. Wave-family placements
	// use one copy; Chimera uses two (its duplicated weights).
	models    []*nn.Model
	stageInst [][]*nn.Stage
	// stageParams[copy][stage] and params (every copy's stages flattened,
	// aligned with Engine.Params) cache the layers' Params() walks.
	stageParams [][][]*nn.Param
	params      []*nn.Param
	router      *comm.Router
	opt         nn.Optimizer
	workers     []*worker // one per device
	backend     rtBackend
	micros      []*data.Batch // this replica's share of the step's batch
	// loss[m] is micro-batch m's loss, written by the one worker that runs
	// its last-stage backward and summed in micro order at the flush, so
	// the step's loss does not depend on which device got there first.
	loss []float64
}

// Engine executes training iterations under a schedule. Everything a step
// needs is built once and reused: the workers with their buffer workspaces
// and dense per-(micro, stage) tables, the interpreter driver, the
// micro-batch views. Reshape moves the engine to another schedule and
// replica count in place, which is how New builds it in the first place.
//
// Buffer ownership. Each worker owns a tensor.Workspace, and every stage is
// attached (nn.Stage.SetWorkspace) to the workspace of the one worker that
// runs it. A step-local tensor belongs to whoever holds it, and is handed
// back to the holder's workspace at the point its last reader retires:
//
//   - layer scratch and saved activations: by the layers (see package nn);
//   - a stage's input (the previous stage's boundary activation, local or
//     received) and the output gradient it consumed: by the worker, when
//     that stage's backward retires — the paper's eager consumption;
//   - logits and the loss gradient: by the last stage's backward;
//   - stage 0's input gradient: at once, nobody reads it;
//   - a split backward's scratch weight gradients: by its weight half;
//   - a sent payload changes owner: the receiver returns it as above.
//
// The flush is the epoch: no step-local tensor outlives it, so each
// workspace sweeps back whatever is still out, which after a healthy step
// is nothing and after an aborted one (AbortReset) is everything in flight.
type Engine struct {
	cfg      Config
	sch      *sched.Schedule
	replicas []*replica
	copies   int // weight copies per replica (1, or 2 for Chimera)
	fail     failures

	driver   exec.Replicas
	backends []exec.Backend // replicas[r].backend, as the driver takes them
	micros   []*data.Batch  // views of the step's batch, reused every step
}

// New validates the configuration and builds the engine: an empty engine,
// reshaped onto cfg.Schedule with cfg.DP replicas. The real runtime
// requires the model to have at least S partitionable units (unlike the
// simulator, which may use fractional stages).
func New(cfg Config) (*Engine, error) {
	if err := cfg.Model.Validate(); err != nil {
		return nil, err
	}
	e := &Engine{cfg: cfg}
	if err := e.Reshape(cfg.Schedule, cfg.DP); err != nil {
		return nil, err
	}
	return e, nil
}

// Reshape moves the engine onto schedule sch with dp data-parallel
// replicas, keeping what survives the move instead of building it again.
// The result is bit for bit the engine New would build for (sch, dp) with
// this engine's Snapshot restored into it — the same weights in every
// replica and copy, zero gradients, fresh optimizers (a stateful
// optimizer restarts, exactly as after Restore) and no failure armed —
// so the next Step trains identically on either. What it keeps:
//
//   - each replica's models, re-split for the new stage count, so the
//     weights and gradient tensors never leave the engine; a replica or
//     Chimera copy the engine did not have is built from the seed and
//     given replica 0's weights, and surplus ones are dropped;
//   - the workers, by device index, with their workspaces; a dropped
//     device's workspace is folded into a survivor's (Workspace.Absorb),
//     and a worker's B·S tables are reallocated only when B·S changes;
//   - the routers (their counters run on) and the interpreter driver.
//
// Reshape validates everything before it changes anything: on error the
// engine is untouched. Call it between steps; whatever a failed Step left
// in flight is reclaimed first, as AbortReset would.
func (e *Engine) Reshape(sch *sched.Schedule, dp int) error {
	if sch == nil {
		return fmt.Errorf("runtime: nil schedule")
	}
	if dp < 1 {
		return fmt.Errorf("runtime: DP must be ≥ 1, got %d", dp)
	}
	if err := sim.Validate(sch); err != nil {
		return fmt.Errorf("runtime: schedule invalid: %w", err)
	}
	if units := e.cfg.Model.Layers + 2; sch.S > units {
		return fmt.Errorf("runtime: schedule needs %d stages but model %q has only %d units",
			sch.S, e.cfg.Model.Name, units)
	}

	e.AbortReset() // zero gradients, nothing in flight: all that is left to keep
	e.fail.fp = nil
	e.sch, e.copies = sch, sch.Mapping.WeightReplicas
	e.cfg.Schedule, e.cfg.DP = sch, dp
	for len(e.replicas) < dp {
		rep := &replica{router: comm.NewRouter()}
		e.replicas = append(e.replicas, rep)
		e.backends = append(e.backends, &rep.backend)
	}
	e.replicas = slices.Delete(e.replicas, dp, len(e.replicas))
	e.backends = slices.Delete(e.backends, dp, len(e.backends))
	for _, rep := range e.replicas {
		e.reshapeReplica(rep)
	}
	return nil
}

// reshapeReplica fits one replica to the engine's new schedule; see Reshape.
func (e *Engine) reshapeReplica(rep *replica) {
	sch := e.sch
	for len(rep.models) < e.copies {
		m := nn.Build(tensor.NewRNG(e.cfg.Seed), e.cfg.Model)
		if e.cfg.Checkpoint {
			m = nn.CheckpointModel(m)
		}
		// Replica 0's first model is the canonical one; every other model
		// starts as a copy of it.
		if src := e.replicas[0].models; len(src) > 0 {
			dst := m.Params()
			for i, p := range src[0].Params() {
				dst[i].W.CopyFrom(p.W)
			}
		}
		rep.models = append(rep.models, m)
	}
	rep.models = slices.Delete(rep.models, e.copies, len(rep.models))
	clear(rep.params)
	rep.params = rep.params[:0]
	rep.stageInst = make([][]*nn.Stage, 0, e.copies)
	rep.stageParams = make([][][]*nn.Param, 0, e.copies)
	for _, m := range rep.models {
		stages := m.Split(sch.S)
		rep.stageInst = append(rep.stageInst, stages)
		ps := make([][]*nn.Param, len(stages))
		for i, st := range stages {
			ps[i] = st.Params()
			rep.params = append(rep.params, ps[i]...)
		}
		rep.stageParams = append(rep.stageParams, ps)
	}
	if e.cfg.NewOptimizer != nil {
		rep.opt = e.cfg.NewOptimizer()
	} else {
		rep.opt = nn.NewSGD(0.1, 0)
	}
	if len(rep.loss) != sch.B {
		rep.loss = make([]float64, sch.B)
	}

	for d := len(rep.workers); d < sch.P; d++ {
		rep.workers = append(rep.workers, &worker{eng: e, rep: rep, device: d, ws: &tensor.Workspace{}})
	}
	for d := sch.P; d < len(rep.workers); d++ {
		rep.workers[d%sch.P].ws.Absorb(rep.workers[d].ws)
	}
	rep.workers = slices.Delete(rep.workers, sch.P, len(rep.workers))
	for d, w := range rep.workers {
		if n := sch.B * sch.S; len(w.acts) != n {
			w.acts = make([]actRecord, n)
			w.dIn = make([]*tensor.Tensor, n)
			w.wPending = make([][]*tensor.Tensor, n)
		}
		w.scale = 1 / float32(sch.B*e.cfg.DP)
		for _, h := range sch.Mapping.Hosted(d) {
			c := 0
			if e.copies == 2 {
				c = h.Chunk
			}
			rep.stageInst[c][h.Stage].SetWorkspace(w.ws)
		}
	}
	rep.backend.workers = rep.workers
}

// Schedule returns the engine's schedule.
func (e *Engine) Schedule() *sched.Schedule { return e.sch }

// Params returns replica 0's canonical parameters (all copies).
func (e *Engine) Params() []*nn.Param { return slices.Clone(e.replicas[0].params) }

// copyFor resolves the weight copy a worker action uses: the chunk's copy
// is derived from the mapping (Chimera's up-pipe micros use copy 1;
// single-copy placements always use copy 0).
func (e *Engine) copyFor(micro, stage int32) int {
	if e.copies == 2 {
		return e.sch.Mapping.Chunk(int(micro), int(stage))
	}
	return 0
}

// actRecord is one (micro, stage) cell of a worker's activation table.
type actRecord struct {
	in  *tensor.Tensor // stage input, held until the backward retires
	out *tensor.Tensor // stage output, until its consumer takes it over
	ctx nn.Ctx
	// outBytes keeps the boundary activation's size for the live-bytes
	// accounting after out itself has moved on.
	outBytes int64
}

// worker executes one device's action list for one replica. Its tables are
// dense, indexed micro·S+stage, and live as long as the engine.
type worker struct {
	eng    *Engine
	rep    *replica
	device int
	ws     *tensor.Workspace
	acts   []actRecord
	dIn    []*tensor.Tensor // output gradients awaiting their backward
	// wPending stashes the per-param weight-gradient contribution an
	// OpBackwardInput computed into scratch, per (micro, stage), until the
	// matching OpBackwardWeight accumulates it into Param.G; empty when
	// nothing is pending. savedG is backwardInput's swap space.
	wPending [][]*tensor.Tensor
	savedG   []*tensor.Tensor
	scale    float32 // loss scaling: 1/(B·DP)

	// Live boundary-activation accounting (stage outputs held between a
	// forward and its backward), counted and measured on the real tensors.
	liveActs, peakActs   int
	liveBytes, peakBytes int64
}

func (w *worker) at(micro, stage int32) int { return int(micro)*w.eng.sch.S + int(stage) }

func (w *worker) tag(kind comm.Kind, micro, stage, src, dst int32) comm.Tag {
	return comm.Tag{Kind: kind, Micro: micro, Stage: stage, Src: src, Dst: dst}
}

// forward runs one OpForward over the stored/pending input.
func (w *worker) forward(a sched.Action) error {
	e := w.eng
	rec := &w.acts[w.at(a.Micro, a.Stage)]
	if rec.in == nil {
		if a.Stage == 0 {
			rec.in = w.rep.micros[a.Micro].Inputs
		} else {
			prev := &w.acts[w.at(a.Micro, a.Stage-1)]
			if prev.out == nil {
				return fmt.Errorf("runtime: device %d: missing local input for %v", w.device, a)
			}
			rec.in, prev.out = prev.out, nil
		}
	}
	st := w.rep.stageInst[e.copyFor(a.Micro, a.Stage)][a.Stage]
	rec.out, rec.ctx = st.Forward(rec.in)
	rec.outBytes = rec.out.NumBytes()
	w.liveActs++
	w.liveBytes += rec.outBytes
	w.peakActs = max(w.peakActs, w.liveActs)
	w.peakBytes = max(w.peakBytes, w.liveBytes)
	return nil
}

// backward runs one OpBackward, sourcing the output gradient from the
// loss (last stage), a peer transfer, or the local successor stage.
func (w *worker) backward(a sched.Action) error {
	e := w.eng
	rec := &w.acts[w.at(a.Micro, a.Stage)]
	if rec.ctx == nil {
		return fmt.Errorf("runtime: device %d: backward before forward for %v", w.device, a)
	}
	var dy *tensor.Tensor
	if int(a.Stage) == e.sch.S-1 {
		micro := w.rep.micros[a.Micro]
		w.rep.loss[a.Micro], dy = nn.SoftmaxCrossEntropyIn(w.ws, rec.out, micro.Targets)
		w.ws.Put(rec.out)
		tensor.ScaleInPlace(dy, w.scale)
	} else if next := w.at(a.Micro, a.Stage+1); w.dIn[next] != nil {
		// Either received from the peer or produced locally by the
		// successor stage's backward on this same device.
		dy, w.dIn[next] = w.dIn[next], nil
	} else {
		return fmt.Errorf("runtime: device %d: missing output grad for %v", w.device, a)
	}
	st := w.rep.stageInst[e.copyFor(a.Micro, a.Stage)][a.Stage]
	dx := st.Backward(rec.ctx, dy)
	// Free the stored activations: the paper's eager consumption.
	w.ws.Put(dy)
	if a.Stage > 0 {
		w.ws.Put(rec.in)
		w.dIn[w.at(a.Micro, a.Stage)] = dx
	} else {
		w.ws.Put(dx) // the batch's token ids take no gradient
	}
	w.liveActs--
	w.liveBytes -= rec.outBytes
	*rec = actRecord{}
	return nil
}

// backwardInput runs one OpBackwardInput: the full stage backward with the
// stage's weight gradients redirected into zeroed scratch tensors, so the
// input gradient (dx) is produced on the critical path while the weight
// contribution is stashed for the matching OpBackwardWeight. Because each
// stashed tensor starts at zero, it holds exactly this micro-batch's
// contribution; deferred accumulation is then bit-for-bit the fused += as
// long as the W ops retire in the same micro order the fused backwards
// would — which the generator guarantees.
func (w *worker) backwardInput(a sched.Action) error {
	ps := w.rep.stageParams[w.eng.copyFor(a.Micro, a.Stage)][a.Stage]
	at := w.at(a.Micro, a.Stage)
	scratch := w.wPending[at][:0]
	w.savedG = w.savedG[:0]
	for _, p := range ps {
		g := w.ws.Zeros(p.G.Shape...)
		scratch = append(scratch, g)
		w.savedG = append(w.savedG, p.G)
		p.G = g
	}
	err := w.backward(a)
	for i, p := range ps {
		p.G = w.savedG[i]
	}
	if err != nil {
		for _, g := range scratch {
			w.ws.Put(g)
		}
		return err
	}
	w.wPending[at] = scratch
	return nil
}

// backwardWeight runs one OpBackwardWeight: it accumulates the stashed
// weight-gradient contribution of (micro, stage) into the stage's Param.G —
// the dependency-free half of the split backward, runnable any time after
// its OpBackwardInput and before the flush.
func (w *worker) backwardWeight(a sched.Action) error {
	at := w.at(a.Micro, a.Stage)
	scratch := w.wPending[at]
	if len(scratch) == 0 {
		return fmt.Errorf("runtime: device %d: %v before its input-grad backward", w.device, a)
	}
	ps := w.rep.stageParams[w.eng.copyFor(a.Micro, a.Stage)][a.Stage]
	if len(ps) != len(scratch) {
		return fmt.Errorf("runtime: device %d: %v param mismatch (%d stashed, %d live)",
			w.device, a, len(scratch), len(ps))
	}
	for i, p := range ps {
		tensor.AxpyInPlace(p.G, 1, scratch[i])
		w.ws.Put(scratch[i])
	}
	w.wPending[at] = scratch[:0]
	return nil
}

// send issues one OpSendAct/OpSendGrad through the router (never blocks).
// The payload changes owner: the receiver returns it to its own workspace.
func (w *worker) send(a sched.Action) error {
	switch a.Kind {
	case sched.OpSendAct:
		// Payload: output of the previous stage (produced locally).
		prev := &w.acts[w.at(a.Micro, a.Stage-1)]
		if prev.out == nil {
			return fmt.Errorf("runtime: device %d: nothing to send for %v", w.device, a)
		}
		w.rep.router.Send(w.tag(comm.Act, a.Micro, a.Stage, int32(w.device), a.Peer), prev.out)
		prev.out = nil
	case sched.OpSendGrad:
		next := w.at(a.Micro, a.Stage+1)
		if w.dIn[next] == nil {
			return fmt.Errorf("runtime: device %d: no grad payload for %v", w.device, a)
		}
		w.rep.router.Send(w.tag(comm.Grad, a.Micro, a.Stage, int32(w.device), a.Peer), w.dIn[next])
		w.dIn[next] = nil
	}
	return nil
}

// recv completes one posted receive: it blocks until the payload arrives
// and stores it for the consuming compute op, or aborts (wrapping
// exec.ErrCanceled) when the driver's done channel closes first because a
// peer's hook failed.
func (w *worker) recv(a sched.Action, done <-chan struct{}) error {
	switch a.Kind {
	case sched.OpRecvAct:
		x, ok := w.rep.router.RecvAbort(w.tag(comm.Act, a.Micro, a.Stage, a.Peer, int32(w.device)), done)
		if !ok {
			return fmt.Errorf("runtime: device %d: %v aborted: %w", w.device, a, exec.ErrCanceled)
		}
		w.acts[w.at(a.Micro, a.Stage)].in = x
	case sched.OpRecvGrad:
		g, ok := w.rep.router.RecvAbort(w.tag(comm.Grad, a.Micro, a.Stage, a.Peer, int32(w.device)), done)
		if !ok {
			return fmt.Errorf("runtime: device %d: %v aborted: %w", w.device, a, exec.ErrCanceled)
		}
		w.dIn[w.at(a.Micro, a.Stage+1)] = g // gradient w.r.t. stage's output
	}
	return nil
}

// reclaim empties the worker's tables and sweeps its workspace: whatever a
// step left in flight goes back to the free lists. The caller guarantees
// no worker is running.
func (w *worker) reclaim() {
	clear(w.acts)
	clear(w.dIn)
	for i, scratch := range w.wPending {
		w.wPending[i] = scratch[:0]
	}
	w.ws.Sweep()
}

// rtBackend is one replica's real-tensor implementation of exec.Backend.
// Each device's hooks run on that device's interpreter goroutine and only
// touch that device's worker; the router is the shared, locked state.
// Compute spans are wall-clock seconds since the iteration started, so the
// interpreter's Record timeline is a real Gantt chart of the training step.
type rtBackend struct {
	workers []*worker
	t0      time.Time
	done    <-chan struct{} // installed by the driver (exec.Cancellable)
}

// SetDone implements exec.Cancellable: blocking receives observe the
// driver's cancellation channel, so a hook error on one device aborts its
// peers — in every replica, the driver shares one channel — instead of
// deadlocking the join.
func (b *rtBackend) SetDone(done <-chan struct{}) { b.done = done }

func (b *rtBackend) Compute(d int, a sched.Action) (float64, float64, error) {
	w := b.workers[d]
	start := time.Since(b.t0).Seconds()
	if micro := int(a.Micro); w.eng.takeFailure(d, micro) {
		return start, start, &DeviceError{Dev: d, Micro: micro}
	}
	var err error
	switch a.Kind {
	case sched.OpForward:
		err = w.forward(a)
	case sched.OpBackwardInput:
		err = w.backwardInput(a)
	case sched.OpBackwardWeight:
		err = w.backwardWeight(a)
	default:
		err = w.backward(a)
	}
	return start, time.Since(b.t0).Seconds(), err
}

// BeginRun is a no-op: the router's mailboxes buffer every send, so
// receives need no ahead-of-time registration.
func (b *rtBackend) BeginRun(d int, run []sched.Action, next int) error { return nil }

func (b *rtBackend) Send(d int, a sched.Action) error { return b.workers[d].send(a) }

func (b *rtBackend) Recv(d, idx int, a sched.Action) error { return b.workers[d].recv(a, b.done) }

// Drain (unbatched strict-order send) degenerates to a plain send: the
// in-process router never blocks a sender, so the NCCL blocking-send
// hazard cannot occur here — only the simulator models it.
func (b *rtBackend) Drain(d, idx int, a sched.Action) error { return b.workers[d].send(a) }

// Flush and Step are engine-level: Engine.Step joins all workers first,
// then all-reduces gradients and steps the optimizers.
func (b *rtBackend) Flush(d int, a sched.Action) error { return nil }

func (b *rtBackend) Step(d int, a sched.Action) error { return nil }

// Result reports one training iteration.
type Result struct {
	Loss      float64 // mean loss over all replicas' micro-batches
	CommStats []comm.Stats
	// PeakActs is the peak count of live stage-activations per device (max
	// over replicas), counted as the workers run: a forward makes one live,
	// a fused backward or input-gradient half releases it. It equals
	// sched.Schedule.PeakActs.
	PeakActs []int
	// PeakActBytes is the peak live boundary-activation footprint per
	// device (max over replicas): the bytes of the stage outputs held
	// between a forward and its backward, not the buffers the workspaces
	// retain. The last stage's output is logits-sized, so it is not a
	// constant multiple of PeakActs.
	PeakActBytes []int64
	// Records is replica 0's per-device compute timeline from the shared
	// interpreter (wall-clock seconds since iteration start) — the same
	// Record shape the simulator produces in virtual time. The engine
	// reuses this storage: it is valid until the engine's next Step.
	Records [][]exec.Record
}

// Step runs one synchronous training iteration on batch. The batch is
// split into DP·B micro-batches: replica r takes micros r·B … (r+1)·B−1.
// Every replica runs the shared exec interpreter concurrently (one
// goroutine per device, one cancellation for all of them); the flush joins
// every worker before the all-reduce and optimizer step. After a failed
// Step call AbortReset before stepping again.
func (e *Engine) Step(batch *data.Batch) (*Result, error) {
	b := e.sch.B
	e.micros = data.SplitMicroInto(e.micros, batch, b*e.cfg.DP)
	t0 := time.Now()
	for ri, rep := range e.replicas {
		rep.micros = e.micros[ri*b : (ri+1)*b]
		rep.backend.t0 = t0
		for _, w := range rep.workers {
			w.liveActs, w.peakActs, w.liveBytes, w.peakBytes = 0, 0, 0, 0
		}
	}
	recs, err := e.driver.Run(e.sch, e.backends, exec.DefaultOptions())
	if err != nil {
		return nil, err
	}

	// Flush: all-reduce gradients across replicas and weight copies, then
	// step every replica's optimizer identically.
	if err := e.allReduce(); err != nil {
		return nil, err
	}
	res := &Result{
		CommStats:    make([]comm.Stats, 0, e.cfg.DP),
		PeakActs:     make([]int, e.sch.P),
		PeakActBytes: make([]int64, e.sch.P),
		Records:      recs[0],
	}
	for _, rep := range e.replicas {
		rep.opt.Step(rep.params)
		var sum float64
		for _, l := range rep.loss {
			sum += l
		}
		res.Loss += sum
		res.CommStats = append(res.CommStats, rep.router.Stats())
		if err := rep.router.Reset(); err != nil {
			return nil, err
		}
		for d, w := range rep.workers {
			res.PeakActs[d] = max(res.PeakActs[d], w.peakActs)
			res.PeakActBytes[d] = max(res.PeakActBytes[d], w.peakBytes)
			w.ws.Sweep()
			w.ws.Mark()
		}
	}
	res.Loss /= float64(b * e.cfg.DP)
	return res, nil
}

// allReduce sums gradients (a) across Chimera's two weight copies within
// each replica and (b) across data-parallel replicas, leaving every aligned
// parameter with the identical total-batch gradient. Loss scaling already
// divided by B·DP, so the sum is the batch-mean gradient.
func (e *Engine) allReduce() error {
	// (a) Within-replica copy reduction (Chimera).
	if e.copies == 2 {
		for _, rep := range e.replicas {
			a, b := rep.stageParams[0], rep.stageParams[1]
			for s := range a {
				pa, pb := a[s], b[s]
				if len(pa) != len(pb) {
					return fmt.Errorf("runtime: copy param mismatch at stage %d", s)
				}
				for i := range pa {
					tensor.AxpyInPlace(pa[i].G, 1, pb[i].G)
					pb[i].G.CopyFrom(pa[i].G)
				}
			}
		}
	}
	// (b) Cross-replica reduction.
	if e.cfg.DP > 1 {
		base := e.replicas[0].params
		for _, rep := range e.replicas[1:] {
			if len(rep.params) != len(base) {
				return fmt.Errorf("runtime: replica param mismatch")
			}
			for i := range base {
				tensor.AxpyInPlace(base[i].G, 1, rep.params[i].G)
			}
		}
		for _, rep := range e.replicas[1:] {
			for i := range base {
				rep.params[i].G.CopyFrom(base[i].G)
			}
		}
	}
	return nil
}
