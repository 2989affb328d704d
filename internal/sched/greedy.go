package sched

import "fmt"

// Priority selects which ready compute task a device runs next.
type Priority int

// Priority policies.
const (
	// ForwardFirst prefers forwards over backwards (GPipe-like).
	ForwardFirst Priority = iota
	// BackwardFirst prefers backwards over forwards — the eager-backward
	// rule that yields 1F1B, Chimera and Hanayo behaviour.
	BackwardFirst
)

// GenParams configures the greedy list scheduler.
type GenParams struct {
	B        int      // micro-batches
	Mapping  *Mapping // stage placement
	Priority Priority
	// InflightCap limits, per (stage, chunk), forwards-started minus
	// backwards-finished (the live-activation budget). The chunk argument
	// distinguishes Chimera's two directions, whose depths differ for the
	// same stage id. nil means unlimited.
	InflightCap func(stage, chunk int) int
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
}

// genEvent is one entry of the engine's typed event heap: "device dev may be
// able to start something at time". dev == wakeAll means every device must
// be scanned: the start of the run, and — under a swapped mapping only — a
// backward completion, whose released live-activation budget a capped
// forward on any device may have been waiting on.
type genEvent struct {
	time float64
	dev  int32
}

const wakeAll = int32(-1)

// engine is the greedy list scheduler on flat reusable storage. All state
// lives in arenas owned by the engine and grown monotonically to the
// largest (P, B, S) shape seen, so a Generator driving repeated runs
// allocates nothing in steady state. The zero value is ready to use; an
// engine is NOT safe for concurrent runs.
//
// Dense task ids: forwards occupy [0, B·S), backwards (fused, or the
// input-gradient half under SplitBackward) [B·S, 2·B·S), and weight-gradient
// tasks [2·B·S, 3·B·S) when the backward is split; within a segment the id
// is micro·S + stage. The selection rule is a total order
// (priority class, then micro, then stage), so results are scan-order
// independent per device; cross-device order is fixed by ascending device
// id at every time step, exactly as the predecessor engine scanned.
type engine struct {
	// Run-scoped configuration (set by run, cleared on exit so the engine
	// retains no caller state between runs).
	gp     *GenParams
	dev    *[2][]int32 // per (micro&1, stage) device table; nil → reference path
	chk    *[2][]int32 // per (micro&1, stage) chunk table; nil → reference path
	capTab []int32     // per (stage, chunkClass) inflight cap; nil → closure/unlimited
	s, p   int         // stages, devices
	half   int         // B·S
	chunks int         // chunks per device

	// Arenas.
	readyAt  []float64  // valid once enqueued
	done     []bool     // executed
	devOf    []int32    // task -> device
	free     []float64  // per device: busy until
	inflight []int32    // (stage, chunkClass) -> live activations
	fwdLeft  []int32    // forwards remaining per device (phase barrier)
	rowLen   []int32    // per device: exact action count before the flush tail
	events   []genEvent // binary min-heap on time
	wake     []bool     // per device: needs rescanning at the popped time
	// The run's output and its ready queues are rows of two flat blocks,
	// sized exactly by layout before the first event pops. Rows are
	// three-index slices (cap == final len), so nothing the engine or a
	// caller appends to one device's row can reach the next device's.
	actions []Action   // every device's action list, back to back
	lists   [][]Action // per device row of actions (the run's output)
	queue   []int32    // every device's pending tasks, back to back
	pending [][]int32  // per device row of queue: queued, not-yet-done tasks
}

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

// devAt resolves the device of (micro, stage) through the dense table when
// the mapping is micro-parity-determined (every built-in placement) or the
// mapping's own lookups otherwise (a mapping swapped in via Option).
func (e *engine) devAt(micro, stage int) int32 {
	if e.dev != nil {
		return e.dev[micro&1][stage]
	}
	return int32(e.gp.Mapping.Device(micro, stage))
}

func (e *engine) chunkAt(micro, stage int) int32 {
	if e.chk != nil {
		return e.chk[micro&1][stage]
	}
	return int32(e.gp.Mapping.Chunk(micro, stage))
}

// capOf returns the inflight cap for (stage, chunk), or a negative value
// for unlimited.
func (e *engine) capOf(stage, chunk int) int {
	if e.capTab != nil {
		return int(e.capTab[stage*e.chunks+chunk])
	}
	if e.gp.InflightCap != nil {
		return e.gp.InflightCap(stage, chunk)
	}
	return -1
}

// push adds an event to the typed min-heap. No interface boxing: the
// container/heap predecessor allocated on every Push/Pop, which dominated
// the generator's allocation profile (~6 events per compute task).
func (e *engine) push(t float64, dev int32) {
	e.events = append(e.events, genEvent{time: t, dev: dev})
	i := len(e.events) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if e.events[parent].time <= e.events[i].time {
			break
		}
		e.events[parent], e.events[i] = e.events[i], e.events[parent]
		i = parent
	}
}

// pop removes the minimum-time event. Ties pop in arbitrary order: the run
// loop merges every event of one instant into a single wake set, so only
// the instant matters.
func (e *engine) pop() genEvent {
	top := e.events[0]
	n := len(e.events) - 1
	e.events[0] = e.events[n]
	e.events = e.events[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && e.events[l].time < e.events[small].time {
			small = l
		}
		if r < n && e.events[r].time < e.events[small].time {
			small = r
		}
		if small == i {
			break
		}
		e.events[i], e.events[small] = e.events[small], e.events[i]
		i = small
	}
	return top
}

// enqueue marks a task ready at time at and files it under its device.
// seg selects the id segment: 0 forward, 1 backward (fused or input-grad),
// 2 weight-grad. Every task has a single producer edge, so it is filed
// exactly once — what lets layout size the pending rows exactly. The caller
// pushes the matching wake event.
func (e *engine) enqueue(micro, stage, seg int, at float64) {
	i := micro*e.s + stage + seg*e.half
	e.readyAt[i] = at
	d := e.devAt(micro, stage)
	e.devOf[i] = d
	e.pending[d] = append(e.pending[d], int32(i))
}

// eligible reports whether queued task i can start at time now.
func (e *engine) eligible(i int, now float64) bool {
	if e.readyAt[i] > now {
		return false
	}
	if i < e.half { // forward
		stage := i % e.s
		chunk := int(e.chunkAt((i%e.half)/e.s, stage))
		if c := e.capOf(stage, chunk); c >= 0 && int(e.inflight[stage*e.chunks+chunk]) >= c {
			return false
		}
		return true
	}
	if i >= 2*e.half { // weight-grad: ready means runnable (no cap, no barrier)
		return true
	}
	if e.gp.PhaseBarrier && e.fwdLeft[e.devOf[i]] > 0 {
		return false
	}
	return true
}

// pick selects the highest-priority eligible task for device d at time now
// (class asc, micro asc, stage desc), or -1. Finished tasks are compacted
// out of the pending list in passing.
func (e *engine) pick(d int, now float64) int {
	lst := e.pending[d]
	best := -1
	var bestClass, bestMicro, bestStage int
	w := 0
	for _, i32 := range lst {
		i := int(i32)
		if e.done[i] {
			continue // drop: executed on an earlier pass
		}
		lst[w] = i32
		w++
		if !e.eligible(i, now) {
			continue
		}
		cls := 0
		if (i >= e.half) != (e.gp.Priority == BackwardFirst) {
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
		micro, stage := (i%e.half)/e.s, i%e.s
		if best == -1 || cls < bestClass ||
			(cls == bestClass && (micro < bestMicro ||
				(micro == bestMicro && stage > bestStage))) {
			best, bestClass, bestMicro, bestStage = i, cls, micro, stage
		}
	}
	e.pending[d] = lst[:w]
	return best
}

// finish applies task i's completion effects at time end: successor
// enqueues with transfer latency, live-activation accounting, and the wake
// events that make the restricted scan sound (the successor's device at its
// ready time; this device when it frees, which also covers the cap budget
// a backward releases — see the end of the function).
func (e *engine) finish(i int, end float64) {
	e.done[i] = true
	micro, stage := (i%e.half)/e.s, i%e.s
	d := e.devOf[i]
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
			e.push(at, sd)
		} else {
			e.enqueue(micro, stage, 1, end)
		}
		e.push(end, d) // device free; barrier release is device-local
		return
	}
	if i >= 2*e.half { // weight-grad: no successors, no budget to release
		e.push(end, d)
		return
	}
	e.inflight[stage*e.chunks+int(e.chunkAt(micro, stage))]--
	if e.gp.SplitBackward {
		// The weight-grad becomes ready the instant its input-grad
		// completes, on the same device (same stage, same weights).
		e.enqueue(micro, stage, 2, end)
	}
	if stage > 0 {
		sd := e.devAt(micro, stage-1)
		// Under EagerW the B+W pair emulates the fused op: the upstream
		// gradient leaves only after the weight half, exactly when the
		// fused backward of duration Tb+Tw would have released it.
		at := end
		if e.gp.SplitBackward && e.gp.EagerW {
			at += e.gp.Tw
		}
		if sd != d {
			at += e.gp.Tc
		}
		e.enqueue(micro, stage-1, 1, at)
		e.push(at, sd)
	}
	// Device free, and the released live-activation budget may unblock
	// capped forwards. With dense tables every forward of this (stage,
	// chunk) class runs on this same device — (stage, chunk) determines the
	// host for every parity-determined placement — so waking d covers the
	// release; only a swapped mapping's reference path broadcasts.
	if e.dev != nil {
		e.push(end, d)
	} else {
		e.push(end, wakeAll)
	}
}

// peer returns the device hosting (micro, stage) when that is a device other
// than d — the far end of a transfer — and -1 when the stage is out of range
// or hosted on d itself (a turn of a wave placement: no tensor moves).
func (e *engine) peer(d int32, micro, stage int) int {
	if stage < 0 || stage >= e.s {
		return -1
	}
	if o := e.devAt(micro, stage); o != d {
		return int(o)
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
// task once. With dense tables all micro-batches of one parity share a
// placement, so micro 0 and micro 1 stand for ⌈B/2⌉ and ⌊B/2⌋ of them;
// a swapped mapping is asked about every micro-batch. It also counts
// fwdLeft, the per-device forwards the phase barrier waits on.
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
	if e.dev != nil {
		count(0, (e.gp.B+1)/2)
		count(1, e.gp.B/2)
	} else {
		for mi := 0; mi < e.gp.B; mi++ {
			count(mi, 1)
		}
	}
	total := 2 * e.p // flush tails
	for _, n := range e.rowLen {
		total += int(n)
	}
	if cap(e.actions) < total {
		e.actions = make([]Action, total)
	}
	if cap(e.queue) < per*e.half {
		e.queue = make([]int32, per*e.half)
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
	switch kind {
	case OpForward:
		if src := e.peer(d, micro, stage-1); src >= 0 {
			list = append(list, Action{Kind: OpRecvAct, Micro: micro, Stage: stage, Peer: src})
		}
	case OpBackward, OpBackwardInput:
		if src := e.peer(d, micro, stage+1); src >= 0 {
			list = append(list, Action{Kind: OpRecvGrad, Micro: micro, Stage: stage, Peer: src})
		}
	}
	list = append(list, Action{Kind: kind, Micro: micro, Stage: stage,
		Chunk: int(e.chunkAt(micro, stage)), Peer: -1})
	sendGrad := kind == OpBackward || (kind == OpBackwardInput && !e.gp.EagerW) ||
		(kind == OpBackwardWeight && e.gp.EagerW)
	switch {
	case kind == OpForward:
		if dst := e.peer(d, micro, stage+1); dst >= 0 {
			list = append(list, Action{Kind: OpSendAct, Micro: micro, Stage: stage + 1, Peer: dst})
		}
	case sendGrad:
		if dst := e.peer(d, micro, stage-1); dst >= 0 {
			list = append(list, Action{Kind: OpSendGrad, Micro: micro, Stage: stage - 1, Peer: dst})
		}
	}
	e.lists[d] = list
}

// runDevice executes the best eligible task on device d at time now, if
// any, and reports whether one ran.
func (e *engine) runDevice(d int, now float64) bool {
	if e.free[d] > now {
		return false
	}
	t := e.pick(d, now)
	if t < 0 {
		return false
	}
	dur := e.gp.Tf
	kind := OpForward
	switch {
	case t >= 2*e.half:
		dur, kind = e.gp.Tw, OpBackwardWeight
	case t >= e.half:
		dur, kind = e.gp.Tb, OpBackward
		if e.gp.SplitBackward {
			kind = OpBackwardInput
		}
	}
	end := now + dur
	e.free[d] = end
	e.emit(int32(d), kind, (t%e.half)/e.s, t%e.s)
	e.finish(t, end)
	return true
}

// run executes the greedy time-driven list scheduling of the iteration DAG,
// leaving every device's full action list — receives, compute, sends, flush
// tail — in e.lists. It is the paper's "unified framework" engine: every
// synchronous scheme is a point in (placement, priority, cap, barrier)
// space.
//
// The event loop is wake-driven: every event names the one device whose
// state changed at that instant (task became ready, device became free), and
// an instant scans only its woken devices, in ascending device id. For
// table-driven placements (every built-in scheme) that single pass is
// complete — nothing it runs can make another device runnable within the
// same instant: durations are positive, so finish, applied when a task
// starts, readies every successor at end > now (each with its own wake
// event); a forward only raises inflight, which can disable but never
// enable; and the budget a backward releases belongs to a (stage, chunk)
// class hosted on the device that just went busy until end, where its own
// wake event rescans it. The instant therefore ends quiescent, which is the
// state the next instant's wake set assumes, and the lists are those of a
// scan of every device after every run. A mapping swapped in
// through an Option carries no such guarantee (a class may span devices),
// so it keeps exactly that: backward completions wake every device, and an
// instant in which anything ran rescans all devices to a fixed point.
func (e *engine) run(gp *GenParams, dev, chk *[2][]int32, capTab []int32) error {
	m := gp.Mapping
	if gp.B <= 0 {
		return fmt.Errorf("sched: B must be positive, got %d", gp.B)
	}
	if gp.Tf <= 0 || gp.Tb <= 0 || gp.Tc < 0 {
		return fmt.Errorf("sched: Tf and Tb must be positive and Tc non-negative")
	}
	if gp.SplitBackward && gp.Tw <= 0 {
		return fmt.Errorf("sched: Tw must be positive when the backward is split")
	}
	e.gp, e.dev, e.chk, e.capTab = gp, dev, chk, capTab
	defer func() { e.gp, e.dev, e.chk, e.capTab = nil, nil, nil, nil }()
	e.s, e.p, e.half = m.S, m.P, gp.B*m.S
	e.chunks = m.ChunksPerDevice()
	total := 2 * e.half
	if gp.SplitBackward {
		total = 3 * e.half
	}

	e.readyAt = arena(e.readyAt, total)
	e.done = arena(e.done, total)
	e.devOf = arena(e.devOf, total)
	e.free = arena(e.free, e.p)
	e.inflight = arena(e.inflight, e.s*e.chunks)
	e.fwdLeft = arena(e.fwdLeft, e.p)
	e.rowLen = arena(e.rowLen, e.p)
	e.wake = arena(e.wake, e.p)
	e.lists = arena(e.lists, e.p)
	e.pending = arena(e.pending, e.p)
	e.events = e.events[:0]
	e.layout()

	for mi := 0; mi < gp.B; mi++ {
		e.enqueue(mi, 0, 0, 0)
	}
	e.push(0, wakeAll)

	executed := 0
	guard := 0
	for executed < total {
		guard++
		if guard > 64*total+1024 {
			return fmt.Errorf("sched: generator stalled (scheme deadlock?) after %d/%d tasks", executed, total)
		}
		if len(e.events) == 0 {
			return fmt.Errorf("sched: no events left with %d/%d tasks executed", executed, total)
		}
		now := e.events[0].time
		all := false
		for len(e.events) > 0 && e.events[0].time == now {
			if ev := e.pop(); ev.dev < 0 {
				all = true
			} else {
				e.wake[ev.dev] = true
			}
		}
		ran := false
		for d := 0; d < e.p; d++ {
			if !all && !e.wake[d] {
				continue
			}
			e.wake[d] = false
			if e.runDevice(d, now) {
				ran = true
				executed++
			}
		}
		for ran && e.dev == nil {
			ran = false
			for d := 0; d < e.p; d++ {
				if e.runDevice(d, now) {
					ran = true
					executed++
				}
			}
		}
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
