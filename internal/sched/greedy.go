package sched

import (
	"fmt"
	"math"
)

// genParams is one compile's parameter block: a scheme's point in
// (placement, priority, cap, barrier) space plus the relative durations
// that order the greedy simulation. Generator.params fills it from the
// family row; the package's tests adjust it before Generator.compile runs.
type genParams struct {
	name    string   // canonical scheme name, for the Schedule and errors
	B       int      // micro-batches
	Mapping *Mapping // stage placement
	// ForwardFirst prefers forwards over backwards (GPipe); otherwise
	// backwards go first — the eager-backward rule that yields 1F1B,
	// Chimera and Hanayo behaviour.
	ForwardFirst bool
	// Cap limits, per (stage, chunk) — row stage·chunks + chunk —
	// forwards started minus backwards finished (the live-activation
	// budget); a negative entry, or a nil table, leaves it unbounded. The
	// chunk distinguishes Chimera's two directions, whose depths differ
	// for the same stage id.
	Cap []int32
	// PhaseBarrier makes backwards on a device ineligible until the device
	// has run all of its forwards — GPipe's flush-between-phases shape.
	PhaseBarrier bool
	// Tf, Tb, Tc are the relative durations used to order the greedy
	// simulation (per-stage compute and per-hop transfer). Only ratios
	// matter; executors re-time the result with real cost models.
	Tf, Tb, Tc float64
	// SplitBackward splits every backward into an input-gradient action
	// (OpBackwardInput, duration Tb, the critical path: it feeds the
	// upstream stage and releases the live activation) and a weight-gradient
	// action (OpBackwardWeight, duration Tw, dependency-free: it only has to
	// run before the flush) — the zero-bubble decomposition. The fused
	// schemes leave this false and are byte-for-byte unaffected.
	SplitBackward bool
	// Tw is the weight-gradient duration when SplitBackward is set.
	Tw float64
	// EagerW gives every weight-gradient task top priority so it runs
	// immediately after its own input-gradient on the same device, and
	// defers the upstream gradient hand-off until the W completes — making
	// the B+W pair behave exactly like one fused backward of duration
	// Tb+Tw. This is the fused-equivalence mode the parity tests use to
	// prove the split vocabulary degenerates to the classic schemes.
	EagerW bool
	// reference selects the instant-by-instant path the lookahead windows
	// are tested against: a backward's end wakes every device, and an
	// instant in which anything ran rescans all devices to a fixed point.
	reference bool
}

// engine is the greedy list scheduler on flat reusable storage. All state
// lives in arenas owned by the engine and grown monotonically to the
// largest (P, B, S) shape seen, so a Generator driving repeated runs
// allocates nothing in steady state. The zero value is ready to use; an
// engine is NOT safe for concurrent runs.
//
// Dense task ids: forwards occupy [0, B·S), backwards (fused, or the
// input-gradient half under SplitBackward) [B·S, 2·B·S), and weight-gradient
// tasks [2·B·S, 3·B·S) when the backward is split; within a segment the id
// is micro·S + stage. A pending entry carries its micro-batch beside the
// id, so recovering the stage takes a multiply, not a division. The
// selection rule is a total order (priority class, then micro, then
// stage), so results are scan-order
// independent per device; cross-device order is fixed by ascending device
// id at every time step, exactly as the predecessor engine scanned.
type engine struct {
	// Run-scoped configuration (set by run, cleared on exit so the engine
	// retains no caller state between runs).
	gp     *genParams
	s, p   int // stages, devices
	half   int // B·S
	chunks int // chunks per device

	// Arenas.
	readyAt  []float64 // valid once enqueued
	done     []bool    // executed
	free     []float64 // per device: busy until
	inflight []int32   // (stage, chunkClass) -> live activations
	fwdLeft  []int32   // forwards remaining per device (phase barrier)
	rowLen   []int32   // per device: exact action count before the flush tail
	// next is, per device, the earliest instant it must be scanned at: the
	// end of the task it runs, the least future ready time among its
	// pending tasks, or +Inf when nothing is pending.
	next []float64
	// The run's output and its ready queues are rows of two flat blocks,
	// sized exactly by layout before the first instant. Rows are
	// three-index slices (cap == final len), so nothing the engine or a
	// caller appends to one device's row can reach the next device's.
	actions []Action   // every device's action list, back to back
	lists   [][]Action // per device row of actions (the run's output)
	queue   []task     // every device's pending tasks, back to back
	pending [][]task   // per device row of queue: queued, not-yet-done tasks
}

// task is a pending entry: a task id and its micro-batch.
type task struct{ id, micro int32 }

// arena reslices s to n elements, reallocating only when capacity is
// insufficient (monotonic growth) and zeroing the active window, so reused
// storage starts every run in the fresh-allocation state. The local twin
// of exec.Arena — exec imports sched, so sched cannot import it back.
func arena[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// devAt is the device of (micro, stage), read from the mapping's parity
// tables.
func (e *engine) devAt(micro, stage int) int32 { return e.gp.Mapping.dev[micro&1][stage] }

// chunkAt is the local chunk of (micro, stage) on its device.
func (e *engine) chunkAt(micro, stage int) int32 { return e.gp.Mapping.chk[micro&1][stage] }

// enqueue marks a task ready at time at and files it under its device.
// seg selects the id segment: 0 forward, 1 backward (fused or input-grad),
// 2 weight-grad. Every task has a single producer edge, so it is filed
// exactly once — what lets layout size the pending rows exactly. The
// device must be scanned once the task is ready and the device is free.
func (e *engine) enqueue(micro, stage, seg int, at float64) {
	i := micro*e.s + stage + seg*e.half
	e.readyAt[i] = at
	d := e.devAt(micro, stage)
	e.pending[d] = append(e.pending[d], task{int32(i), int32(micro)})
	e.next[d] = min(e.next[d], max(at, e.free[d]))
}

// split returns pending entry t's micro-batch and stage: the segment offset
// comes off the id by comparison and micro·S by a multiply, so no division
// runs per candidate.
func (e *engine) split(t task) (micro, stage int) {
	i := int(t.id)
	for i >= e.half {
		i -= e.half
	}
	return int(t.micro), i - int(t.micro)*e.s
}

// eligible reports whether task i of (micro, stage), queued on device d and
// ready by now, can start: its live-activation cap and the phase barrier
// permitting.
func (e *engine) eligible(d, i, micro, stage int) bool {
	if i < e.half { // forward
		if e.gp.Cap == nil {
			return true
		}
		k := stage*e.chunks + int(e.chunkAt(micro, stage))
		return e.gp.Cap[k] < 0 || e.inflight[k] < e.gp.Cap[k]
	}
	if i >= 2*e.half { // weight-grad: ready means runnable (no cap, no barrier)
		return true
	}
	if e.gp.PhaseBarrier && e.fwdLeft[d] > 0 {
		return false
	}
	return true
}

// pick selects the highest-priority eligible task for device d at time now
// (class asc, micro asc, stage desc), or an entry of id -1, and reports the
// least ready time after now among the device's pending tasks (+Inf if
// none). Finished tasks are compacted out of the pending list in passing.
func (e *engine) pick(d int, now float64) (task, float64) {
	lst := e.pending[d]
	best, soon := task{id: -1}, math.Inf(1)
	var bestClass, bestMicro, bestStage int
	w := 0
	for _, t := range lst {
		i := int(t.id)
		if e.done[i] {
			continue // drop: executed on an earlier pass
		}
		lst[w] = t
		w++
		if at := e.readyAt[i]; at > now {
			soon = min(soon, at)
			continue
		}
		micro, stage := e.split(t)
		if !e.eligible(d, i, micro, stage) {
			continue
		}
		cls := 0
		if (i >= e.half) == e.gp.ForwardFirst {
			cls = 1
		}
		if i >= 2*e.half {
			// Weight-grads are pure bubble fillers: lowest class, so they
			// yield to every forward and input-grad — unless EagerW pins
			// them above everything to reconstruct the fused op.
			cls = 2
			if e.gp.EagerW {
				cls = -1
			}
		}
		if best.id < 0 || cls < bestClass ||
			(cls == bestClass && (micro < bestMicro ||
				(micro == bestMicro && stage > bestStage))) {
			best, bestClass, bestMicro, bestStage = t, cls, micro, stage
		}
	}
	e.pending[d] = lst[:w]
	return best, soon
}

// finish applies the completion effects of task i, (micro, stage), run on
// device d, at time end: successor enqueues with transfer latency (each
// lowers its device's next wake to the successor's ready time) and
// live-activation accounting. The device itself is scanned again at end,
// when it frees, which also covers the cap budget a backward releases —
// see the end of the function.
func (e *engine) finish(d int32, i, micro, stage int, end float64) {
	e.done[i] = true
	if i < e.half { // forward
		e.fwdLeft[d]--
		e.inflight[stage*e.chunks+int(e.chunkAt(micro, stage))]++
		// Successor: next forward stage, or own backward at the top.
		if stage+1 < e.s {
			sd := e.devAt(micro, stage+1)
			at := end
			if sd != d {
				at += e.gp.Tc
			}
			e.enqueue(micro, stage+1, 0, at)
		} else {
			e.enqueue(micro, stage, 1, end)
		}
		return // the barrier release is device-local
	}
	if i >= 2*e.half { // weight-grad: no successors, no budget to release
		return
	}
	e.inflight[stage*e.chunks+int(e.chunkAt(micro, stage))]--
	if e.gp.SplitBackward {
		// The weight-grad becomes ready the instant its input-grad
		// completes, on the same device (same stage, same weights).
		e.enqueue(micro, stage, 2, end)
	}
	if stage > 0 {
		// Under EagerW the B+W pair emulates the fused op: the upstream
		// gradient leaves only after the weight half, exactly when the
		// fused backward of duration Tb+Tw would have released it.
		at := end
		if e.gp.SplitBackward && e.gp.EagerW {
			at += e.gp.Tw
		}
		if e.devAt(micro, stage-1) != d {
			at += e.gp.Tc
		}
		e.enqueue(micro, stage-1, 1, at)
	}
	// The released live-activation budget may unblock capped forwards. Every
	// forward of this (stage, chunk) class runs on this same device —
	// (stage, chunk) determines the host in every placement — so d's own
	// wake at end covers the release; the reference path, which assumes
	// nothing about where a class runs, wakes every device.
	if e.gp.reference {
		for x := range e.next {
			e.next[x] = min(e.next[x], end)
		}
	}
}

// peer returns the device hosting (micro, stage) when that is a device other
// than d — the far end of a transfer — and -1 when the stage is out of range
// or hosted on d itself (a turn of a wave placement: no tensor moves).
func (e *engine) peer(d int32, micro, stage int) int32 {
	if stage < 0 || stage >= e.s {
		return -1
	}
	if o := e.devAt(micro, stage); o != d {
		return o
	}
	return -1
}

// layout sizes every device's action list and ready queue exactly and
// carves them, as empty rows, out of the engine's two flat blocks. The
// counts are closed-form in the placement: a device's list holds, per
// hosted (micro, stage), the compute actions (2, or 3 under SplitBackward)
// plus two transfers per neighbouring stage hosted elsewhere (the
// activation crossing that boundary forward and the gradient crossing it
// back), then the two-action flush tail; its queue holds every compute
// task once. All micro-batches of one parity share a placement, so micro 0
// and micro 1 stand for ⌈B/2⌉ and ⌊B/2⌋ of them. It also counts fwdLeft,
// the per-device forwards the phase barrier waits on.
func (e *engine) layout() {
	per := 2
	if e.gp.SplitBackward {
		per = 3
	}
	count := func(micro, n int) { // n micro-batches placed like micro
		for s := 0; s < e.s; s++ {
			d := e.devAt(micro, s)
			acts := per
			if e.peer(d, micro, s-1) >= 0 {
				acts += 2
			}
			if e.peer(d, micro, s+1) >= 0 {
				acts += 2
			}
			e.fwdLeft[d] += int32(n)
			e.rowLen[d] += int32(acts * n)
		}
	}
	count(0, (e.gp.B+1)/2)
	count(1, e.gp.B/2)
	total := 2 * e.p // flush tails
	for _, n := range e.rowLen {
		total += int(n)
	}
	if cap(e.actions) < total {
		e.actions = make([]Action, total)
	}
	if cap(e.queue) < per*e.half {
		e.queue = make([]task, per*e.half)
	}
	a, q := 0, 0
	for d := 0; d < e.p; d++ {
		n, tasks := int(e.rowLen[d])+2, per*int(e.fwdLeft[d])
		e.lists[d] = e.actions[a : a : a+n]
		e.pending[d] = e.queue[q : q : q+tasks]
		a, q = a+n, q+tasks
	}
}

// emit appends compute task (kind, micro, stage) to device d's action list
// together with the point-to-point transfers of every stage boundary it
// touches that crosses devices. The receive sits immediately before the
// consuming compute op and the send immediately after the producing one —
// maximizing communication/computation overlap on the send side; the
// executors treat consecutive comm ops as one batched isend/irecv group
// (§4.2), which is what makes the bidirectional exchanges of wave pipelines
// deadlock-free. Under SplitBackward the input-grad half carries all of the
// backward's communication (receiving the upstream gradient and forwarding
// its own as soon as the input half is done — the send-early win of the
// split); weight-grads move no tensors. EagerW instead re-attaches the
// gradient send to the weight half, restoring the fused op's release point.
func (e *engine) emit(d int32, kind OpKind, micro, stage int) {
	list := e.lists[d]
	m, st := int32(micro), int32(stage)
	switch kind {
	case OpForward:
		if src := e.peer(d, micro, stage-1); src >= 0 {
			list = append(list, Action{Kind: OpRecvAct, Micro: m, Stage: st, Peer: src})
		}
	case OpBackward, OpBackwardInput:
		if src := e.peer(d, micro, stage+1); src >= 0 {
			list = append(list, Action{Kind: OpRecvGrad, Micro: m, Stage: st, Peer: src})
		}
	}
	list = append(list, Action{Kind: kind, Micro: m, Stage: st,
		Chunk: e.chunkAt(micro, stage), Peer: -1})
	sendGrad := kind == OpBackward || (kind == OpBackwardInput && !e.gp.EagerW) ||
		(kind == OpBackwardWeight && e.gp.EagerW)
	switch {
	case kind == OpForward:
		if dst := e.peer(d, micro, stage+1); dst >= 0 {
			list = append(list, Action{Kind: OpSendAct, Micro: m, Stage: st + 1, Peer: dst})
		}
	case sendGrad:
		if dst := e.peer(d, micro, stage-1); dst >= 0 {
			list = append(list, Action{Kind: OpSendGrad, Micro: m, Stage: st - 1, Peer: dst})
		}
	}
	e.lists[d] = list
}

// runDevice executes the best eligible task on device d at time now, if
// any, and reports whether one ran. It sets d's next wake: the end of the
// task it runs, when it frees if busy, or else the next ready time among
// its pending tasks.
func (e *engine) runDevice(d int, now float64) bool {
	if e.free[d] > now {
		e.next[d] = e.free[d]
		return false
	}
	t, soon := e.pick(d, now)
	if t.id < 0 {
		e.next[d] = soon
		return false
	}
	i := int(t.id)
	dur := e.gp.Tf
	kind := OpForward
	switch {
	case i >= 2*e.half:
		dur, kind = e.gp.Tw, OpBackwardWeight
	case i >= e.half:
		dur, kind = e.gp.Tb, OpBackward
		if e.gp.SplitBackward {
			kind = OpBackwardInput
		}
	}
	end := now + dur
	e.free[d], e.next[d] = end, end
	micro, stage := e.split(t)
	e.emit(int32(d), kind, micro, stage)
	e.finish(int32(d), i, micro, stage, end)
	return true
}

// window runs every device through the lookahead window [now, end), in
// ascending id: each device is scanned at each of its own wakes inside the
// window. It returns how many ran a task and the least next after the
// window, where the next one starts. now is the least next, so no device
// is due before the window opens.
//
// run calls it, off the reference path, only when end = now + Δ exceeds
// now, Δ = min(Tf, Tb) being the shortest duration of a task that enqueues
// a successor, and there the result is the instant-by-instant loop's (pass
// at every instant). A weight-gradient task may be shorter — a device may
// then run several tasks in one window, each at its own wake — but it
// enqueues nothing and releases no budget: its only effect is on its own
// device's clock and queue. A forward or a backward (its input-gradient
// half under a split) lasts at least Δ and float rounding is monotone, so
// one started at t ≥ now ends at t + dur ≥ end, and every successor it
// enqueues is ready no earlier than that end — its own next stage at end, a
// cross-device one at end + Tc, the EagerW hand-off at end + Tw, the weight
// half at end on the same device — so no device becomes ready in the window
// for anything another ran there, and the entry it gains is neither picked
// nor changes its wakes before end (enqueue lowers next to the same least
// ready time a later scan would find). A device's cap classes and phase
// barrier are its own: every (stage, chunk) class a Mapping places is
// hosted on one device. Nothing a device does in a window
// can therefore change another's choices in it, and running the devices
// one after another yields the lists of scanning all of them at every
// instant. The least next is taken as each device leaves, as in pass.
func (e *engine) window(end float64) (ran int, lo float64) {
	lo = math.Inf(1)
	for d := 0; d < e.p; d++ {
		for t := e.next[d]; t < end; t = e.next[d] {
			if e.runDevice(d, t) {
				ran++
			}
		}
		lo = min(lo, e.next[d])
	}
	return ran, lo
}

// pass scans the devices once at instant now, in ascending id — all of them
// when all is set, else those due now — and returns how many ran a task and
// the least next after the pass, the next instant. It is the reference
// path's step and the lookahead window's fallback when now + Δ rounds to
// now. next[d] is read as the pass reaches d, so a device that an earlier
// run of this pass made due now (possible only when a duration vanishes
// against the clock in float64) is scanned in this pass, as a full rescan
// would. Taking the least next as each device leaves the pass is exact: a
// wake lowered after its device left is never below the end of the run
// that lowered it — a successor is ready no earlier than its producer ends,
// and the reference path's broadcast wakes at that end — and the
// producer's own next is that end, already counted.
func (e *engine) pass(now float64, all bool) (ran int, lo float64) {
	lo = math.Inf(1)
	for d := 0; d < e.p; d++ {
		if (all || e.next[d] == now) && e.runDevice(d, now) {
			ran++
		}
		lo = min(lo, e.next[d])
	}
	return ran, lo
}

// run executes the greedy time-driven list scheduling of the iteration DAG,
// leaving every device's full action list — receives, compute, sends, flush
// tail — in e.lists. It is the paper's "unified framework" engine: every
// synchronous scheme is a point in (placement, priority, cap, barrier)
// space.
//
// The loop is wake-driven: each device keeps next, the earliest instant at
// which it must be scanned — the end of the task it runs (the device frees;
// a backward's released budget and the phase barrier are device-local), the
// ready time a task is enqueued with (no earlier
// than the device frees), or, when a scan finds nothing eligible, the next
// ready time among its pending tasks. Every other change of eligibility
// comes from one of those. The result is defined by scanning, at each
// instant — the least next — the devices due then, in ascending id (pass):
// with positive durations nothing a scan runs readies a task at the same
// instant, and the budget a backward releases belongs to a class hosted on
// the device that just went busy, so that one pass leaves the instant
// quiescent.
//
// run takes lookahead windows instead of single instants: with
// Δ = min(Tf, Tb), each step is the window [now, now + Δ), in which every
// device runs through its own wakes on its own (see window for why that is
// exact), so a device is checked once per window, not once per instant.
// When now + Δ rounds to now in float64 (a duration vanishing against the
// clock), the step falls back to the single-instant pass. gp.reference
// selects the path the windows are tested against, which leans on none of
// these arguments: it steps instant by instant, a backward's end wakes
// every device, and an instant in which anything ran rescans all devices
// to a fixed point.
func (e *engine) run(gp *genParams) error {
	m := gp.Mapping
	if gp.B <= 0 {
		return fmt.Errorf("sched: B must be positive, got %d", gp.B)
	}
	if !(gp.Tf > 0 && gp.Tb > 0 && gp.Tc >= 0) || math.IsInf(gp.Tf+gp.Tb+gp.Tc, 1) {
		return fmt.Errorf("sched: Tf and Tb must be positive and Tc non-negative, all finite")
	}
	tw := 0.0
	if gp.SplitBackward {
		if tw = gp.Tw; !(tw > 0) || math.IsInf(tw, 1) {
			return fmt.Errorf("sched: Tw must be positive and finite when the backward is split")
		}
	}
	e.s, e.p, e.half = m.S, m.P, gp.B*m.S
	total := 2 * e.half
	if gp.SplitBackward {
		total = 3 * e.half
	}
	// No instant may reach +Inf, which next reserves for "nothing pending":
	// an instant is at most every task's duration plus every transfer.
	if !(float64(total)*(gp.Tf+gp.Tb+gp.Tc+2*tw) <= math.MaxFloat64/2) {
		return fmt.Errorf("sched: ordering costs overflow over %d tasks", total)
	}
	e.gp = gp
	defer func() { e.gp = nil }()
	e.chunks = m.ChunksPerDevice()

	e.readyAt = arena(e.readyAt, total)
	e.done = arena(e.done, total)
	e.free = arena(e.free, e.p)
	e.inflight = arena(e.inflight, e.s*e.chunks)
	e.fwdLeft = arena(e.fwdLeft, e.p)
	e.rowLen = arena(e.rowLen, e.p)
	e.next = arena(e.next, e.p)
	for d := range e.next {
		e.next[d] = math.Inf(1)
	}
	e.lists = arena(e.lists, e.p)
	e.pending = arena(e.pending, e.p)
	e.layout()

	for mi := 0; mi < gp.B; mi++ {
		e.enqueue(mi, 0, 0, 0)
	}

	delta := min(gp.Tf, gp.Tb) // the lookahead: no task that enqueues a successor is shorter
	executed := 0
	guard := 0
	now := 0.0 // every first-stage forward is ready at 0
	for executed < total {
		guard++
		if guard > 64*total+1024 {
			return fmt.Errorf("sched: generator stalled (scheme deadlock?) after %d/%d tasks", executed, total)
		}
		if math.IsInf(now, 1) {
			return fmt.Errorf("sched: nothing pending with %d/%d tasks executed", executed, total)
		}
		if end := now + delta; !gp.reference && end > now {
			ran, lo := e.window(end)
			executed += ran
			now = lo
			continue
		}
		ran, lo := e.pass(now, false)
		executed += ran
		for ran > 0 && gp.reference {
			ran, lo = e.pass(now, true)
			executed += ran
		}
		now = lo
	}
	// Synchronous flush: gradient all-reduce then optimizer step. Every row
	// must now be exactly full — anything else means the placement answered
	// layout and the run differently.
	for d := range e.lists {
		e.lists[d] = append(e.lists[d],
			Action{Kind: OpAllReduce, Micro: -1, Stage: -1, Peer: -1},
			Action{Kind: OpOptimStep, Micro: -1, Stage: -1, Peer: -1})
		if got, want := len(e.lists[d]), int(e.rowLen[d])+2; got != want {
			return fmt.Errorf("sched: device %d emitted %d actions, placement sized %d", d, got, want)
		}
	}
	return nil
}
