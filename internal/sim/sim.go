// Package sim is the discrete-event executor that measures a schedule
// against a cost model: makespan, per-device busy/idle time, bubble-zone
// decomposition (paper Fig 7), live-activation peaks and a full timeline
// for Gantt rendering. It is the timing backend of the shared internal/exec
// interpreter; internal/runtime plugs a real-tensor backend into the same
// interpreter, which is the two-executor design: sim answers "how fast",
// runtime answers "is it correct", and both walk identical action lists.
package sim

import (
	"errors"
	"fmt"

	"repro/internal/exec"
	"repro/internal/sched"
)

// Cost is the timing oracle. internal/costmodel provides cluster-calibrated
// and uniform implementations.
type Cost interface {
	ForwardTime(device, stage int) float64
	BackwardTime(device, stage int) float64
	CommTime(src, dst int) float64
}

// Zone classifies idle time per the paper's Fig 7 taxonomy.
type Zone int

// Bubble zones.
const (
	ZoneA     Zone = iota // waiting for forward activations from peers
	ZoneB                 // forward/backward overhead discrepancy region
	ZoneC                 // backward propagation and tail/flush waits
	ZoneCross             // waiting inside batched bidirectional exchanges
)

// String names the zone.
func (z Zone) String() string {
	switch z {
	case ZoneA:
		return "A"
	case ZoneB:
		return "B"
	case ZoneC:
		return "C"
	case ZoneCross:
		return "cross"
	}
	return fmt.Sprintf("Zone(%d)", int(z))
}

// Options tune executor semantics.
type Options struct {
	// Prefetch posts receives ahead of time (paper §4.2): a transfer may
	// start as soon as the sender issues it. When false, a transfer also
	// waits for the receiver to reach its receive — the no-prefetch
	// ablation.
	Prefetch bool
	// BatchComm issues all sends of a consecutive communication run at
	// group entry (batch_isend_irecv semantics). When false, ops within a
	// run execute strictly in order, which can deadlock bidirectional
	// schedules — exactly the NCCL hazard the paper describes. This is the
	// interpreter-level exec.Options.BatchComm knob.
	BatchComm bool
	// FlushTime charges a fixed duration for the gradient all-reduce.
	FlushTime float64
}

// DefaultOptions is the paper-faithful configuration.
func DefaultOptions() Options { return Options{Prefetch: true, BatchComm: true} }

// NumZones is the number of bubble-zone classes; Zones arrays index by Zone.
const NumZones = 4

// Record is one executed action with its time span — the shared
// interpreter's timeline entry.
type Record = exec.Record

// Result summarizes one simulated iteration.
type Result struct {
	Schedule *sched.Schedule
	Makespan float64
	Busy     []float64 // per device compute-busy time
	End      []float64 // per device completion time
	// PeakActs is the per-device peak count of live stage-activations over
	// the whole iteration, sched.Schedule.PeakActs: a device retires its
	// compute ops in list order, so timing never changes it. It stays the
	// full-iteration count when a RunDeadline cap or a Fail event aborts
	// the walk.
	PeakActs []int
	// Zones is the Fig 7 idle-time decomposition, indexed by Zone (a dense
	// array, not a map: the simulator hot path writes it per wait).
	Zones [NumZones]float64

	// Failed marks a run aborted by a FaultPlan Fail event: the schedule
	// cannot complete on the faulty cluster, so the run is infeasible.
	// Makespan/End/Records() then cover only the executed prefix (the clock
	// high-water mark at abort), FailedDevice/FailTime identify the fault,
	// and Recovery estimates the restart-from-checkpoint iteration
	// makespan: the progress lost up to the failure, plus the plan's
	// RestartCost, plus the serial re-execution floor (the busiest
	// device's full compute plus the flush). The estimate is
	// deterministic — it depends only on the schedule, the cost model and
	// the fault plan, never on walk interleaving.
	Failed       bool
	FailedDevice int
	FailTime     float64
	Recovery     float64

	// records is the run's timeline once Records has replayed it; runner
	// is the Runner that owns this Result and replays its last run.
	records [][]Record
	runner  *Runner
}

// Records returns the per-device compute timeline of the run the Result
// describes: for a deadline abort or a Fail run, its executed prefix. A
// walk keeps no timeline, so the first call replays the run with recording
// on into this same Result — every other field comes out the same, bit for
// bit — and later calls return that timeline. The replay needs the run's
// schedule, cost model and fault plan unchanged until then. Like the
// Result, the timeline is owned by the Runner and valid until its next run.
func (r *Result) Records() [][]Record {
	if r.records == nil && r.runner != nil {
		r.runner.walk(true)
	}
	return r.records
}

// BubbleRatio is total idle over total device-time, the paper's metric.
func (r *Result) BubbleRatio() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	var busy float64
	for _, b := range r.Busy {
		busy += b
	}
	return 1 - busy/(float64(len(r.Busy))*r.Makespan)
}

// TotalIdle returns summed idle time across devices.
func (r *Result) TotalIdle() float64 {
	var idle float64
	for _, b := range r.Busy {
		idle += r.Makespan - b
	}
	return idle
}

// transfer is one payload's state. Stored by value in a dense slice
// indexed by (kind, micro, stage) — the directed pair (src, dst) is
// determined by the schedule for a given payload, so every op on the slot
// derives it from its own action rather than storing it. The arrival time
// and six flags: a slot is 16 bytes. Under prefetch a send resolves the
// moment it is issued, so a receive reads this one slot; the no-prefetch
// ablation keeps each slot's issue and post times in the backend's side
// tables.
type transfer struct {
	arrival  float64
	issued   bool
	posted   bool
	resolved bool
	// produced is set by the compute op whose output the payload is; a
	// send reached before it has nothing to carry.
	produced bool
	// delivered is set by the receive that completes the transfer.
	delivered bool
	// consumed is set by the compute op whose input the payload is: the
	// forward of (micro, stage) for the activation into it, the backward or
	// input-grad half for the gradient into it. Slots no transfer uses —
	// the activation into stage 0, the gradient into the last stage — carry
	// this flag alone.
	consumed bool
}

// errDeadline is the internal sentinel a deadline-capped run's hooks
// return the moment any device clock passes the cap; the cooperative
// driver aborts the walk and RunDeadline translates it into the exceeded
// verdict.
var errDeadline = errors.New("sim: deadline exceeded")

// errFailed is the sentinel a faulty run's hooks return when a device's
// op would span its Fail timestamp: the walk aborts exactly like the
// deadline path, and run translates it into the infeasible-with-recovery
// verdict instead of an error.
var errFailed = errors.New("sim: device failed")

// backend is the timing implementation of exec.Backend: virtual per-device
// clocks, a transfer table with link serialization, and the Fig 7 zone
// decomposition of every wait. All per-op state lives in flat preallocated
// slices indexed by arithmetic over the schedule's known shape — the hot
// path allocates nothing.
type backend struct {
	s    *sched.Schedule
	cost Cost
	opt  Options
	res  *Result
	// deadline, when positive, aborts the walk as soon as a device clock
	// exceeds it (strictly: a run finishing exactly at the cap completes,
	// so throughput ties with a pruning cutoff are never lost).
	deadline float64
	// faults, when non-nil, perturbs op durations at virtual timestamps
	// and aborts the walk on a device failure; ft is the plan compiled
	// into per-device/per-link timelines for this run's shape (the hot
	// path queries only ft), and failedDev/failTime record the triggering
	// Fail event for the run's verdict.
	faults    *FaultPlan
	ft        faultTimelines
	failedDev int
	failTime  float64

	// transfers is indexed by transferIdx(kind, micro, stage): 2·B·S slots.
	// A directed link's sends resolve in issue order; since a directed link
	// has a unique sender walking its list serially, issue order is program
	// order and we can resolve eagerly with linkFree (indexed src*P+dst).
	// issue and post hold each slot's issue and post times; only the
	// no-prefetch ablation, where a transfer waits for both, sizes them.
	transfers   []transfer
	issue, post []float64
	linkFree    []float64

	time []float64
	// pendingZone is the zone any wait inside the current batched comm run
	// charges to, classified at group entry.
	pendingZone []Zone
}

// transferIdx flattens a message identity into the dense transfer table:
// kind bit (activation 0, gradient 1), micro-batch, stage.
func (b *backend) transferIdx(grad, micro, stage int) int {
	return (grad*b.s.B+micro)*b.s.S + stage
}

// slot is the transfer table index of a comm op's payload — the same for
// a send and the receive that matches it. The directed link is the op's
// own: a send travels from its device to its peer, a receive from its
// peer. The hooks pass an action's fields, never the action: sched.Action
// has five fields, too many for the compiler to keep in registers, so a
// whole copy is a memory copy, and reading it back right after the hook
// spilled its fields one by one stalls on store forwarding.
func (b *backend) slot(kind sched.OpKind, micro, stage int32) int {
	grad := 0
	if kind == sched.OpSendGrad || kind == sched.OpRecvGrad {
		grad = 1
	}
	return b.transferIdx(grad, int(micro), int(stage))
}

// classify looks past index i in device d's list for the next compute op
// to name the zone an upcoming wait belongs to (Fig 7).
func (b *backend) classify(d, i int) Zone {
	list := b.s.Lists[d]
	sawBackward := false
	for j := i; j < len(list); j++ {
		switch list[j].Kind {
		case sched.OpForward:
			if sawBackward {
				return ZoneB
			}
			return ZoneA
		case sched.OpBackward, sched.OpBackwardInput, sched.OpBackwardWeight:
			sawBackward = true
			// Keep scanning: a later forward means mid-pipeline (B),
			// none means the tail (C).
		}
	}
	return ZoneC
}

// resolve times transfer tr over link src→dst from start on: it begins
// when the link is free, too, and the link is busy until it arrives.
func (b *backend) resolve(tr *transfer, src, dst int, start float64) {
	link := src*b.s.P + dst
	if b.linkFree[link] > start {
		start = b.linkFree[link]
	}
	dur := b.cost.CommTime(src, dst)
	if b.faults != nil {
		// A transfer starting at or after a LinkDegrade runs at the
		// degraded rate; factors are in (0,1] so this only lengthens it.
		if f := b.ft.linkAt(link, start); f != 1 {
			dur /= f
		}
	}
	b.linkFree[link] = start + dur
	tr.arrival = start + dur
	tr.resolved = true
}

// resolvePosted is the no-prefetch ablation's resolution point: a
// transfer starts only once it is both issued and posted, at the later of
// the two times.
func (b *backend) resolvePosted(i, src, dst int) {
	tr := &b.transfers[i]
	if tr.resolved || !tr.issued || !tr.posted {
		return
	}
	start := b.issue[i]
	if b.post[i] > start {
		start = b.post[i]
	}
	b.resolve(tr, src, dst, start)
}

// produce marks the transfer slot of the payload compute op a hands on as
// ready to send: the activation into the next stage after a forward, the
// gradient into the previous stage after a backward or its input-gradient
// half. A slot whose stage is hosted on the same device is marked too and
// simply never sent.
func (b *backend) produce(kind sched.OpKind, micro, stage int) {
	switch kind {
	case sched.OpForward:
		if stage+1 < b.s.S {
			b.transfers[b.transferIdx(0, micro, stage+1)].produced = true
		}
	case sched.OpBackward, sched.OpBackwardInput:
		if stage > 0 {
			b.transfers[b.transferIdx(1, micro, stage-1)].produced = true
		}
	}
}

// unproduced is the error for a send reached before the compute op that
// produces its payload.
func unproduced(d int, a sched.Action) error {
	return fmt.Errorf("device %d runs %v before the compute that produces its payload", d, a)
}

// consume checks that compute op a on device d finds its input, and marks
// the input consumed: a forward needs the activation into its stage, a
// backward or input-grad half its own forward and the gradient into its
// stage, a weight-grad half its input-grad half. An input is there when a
// receive on d delivered it or when d itself produced it; the first and
// last stages' inputs — the micro-batch, the loss — are always there.
func (b *backend) consume(d int, a sched.Action) error {
	micro, stage := int(a.Micro), int(a.Stage)
	act := &b.transfers[b.transferIdx(0, micro, stage)]
	grad := &b.transfers[b.transferIdx(1, micro, stage)]
	switch a.Kind {
	case sched.OpForward:
		if stage > 0 && !b.arrived(act, d, micro, stage-1) {
			return fmt.Errorf("device %d runs %v before its input activation arrives", d, a)
		}
		act.consumed = true
	case sched.OpBackward, sched.OpBackwardInput:
		if !act.consumed {
			return fmt.Errorf("device %d runs %v before its forward", d, a)
		}
		if stage+1 < b.s.S && !b.arrived(grad, d, micro, stage+1) {
			return fmt.Errorf("device %d runs %v before its input gradient arrives", d, a)
		}
		grad.consumed = true
	case sched.OpBackwardWeight:
		if !grad.consumed {
			return fmt.Errorf("device %d runs %v before its input-grad half", d, a)
		}
	}
	return nil
}

// arrived reports whether payload tr, produced by the compute of (micro,
// from), is on device d: delivered by a receive, or produced by d itself.
func (b *backend) arrived(tr *transfer, d, micro, from int) bool {
	return tr.delivered || tr.produced && b.s.Mapping.Device(micro, from) == d
}

// opTime prices one compute op from the cost model. The zero-bubble split
// halves (OpBackwardInput / OpBackwardWeight) split the fused backward
// evenly, t/2 and the exact remainder t − t/2, so they sum to the fused
// duration bit for bit and a split schedule's total compute equals its
// fused twin's.
func (b *backend) opTime(d int, kind sched.OpKind, stage int) float64 {
	switch kind {
	case sched.OpBackward:
		return b.cost.BackwardTime(d, stage)
	case sched.OpBackwardInput:
		return b.cost.BackwardTime(d, stage) / 2
	case sched.OpBackwardWeight:
		t := b.cost.BackwardTime(d, stage)
		return t - t/2
	}
	return b.cost.ForwardTime(d, stage)
}

func (b *backend) Compute(d int, a sched.Action) (float64, float64, error) {
	if err := b.consume(d, a); err != nil {
		return 0, 0, err
	}
	dur := b.opTime(d, a.Kind, int(a.Stage))
	start := b.time[d]
	if b.faults != nil {
		// An op starting at or after a SlowDown runs at the degraded
		// speed (factors compose; all are in (0,1], so dur only grows).
		if f := b.ft.speedAt(d, start); f != 1 {
			dur /= f
		}
	}
	end := start + dur
	b.res.Busy[d] += dur
	b.time[d] = end
	b.produce(a.Kind, int(a.Micro), int(a.Stage))
	if b.faults != nil {
		// An op still running at the device's Fail timestamp never
		// completes (strictly: one ending exactly at the timestamp does).
		// Checked before the deadline so a doomed run reports the
		// deterministic failure verdict, not a cap-dependent bound.
		if at := b.ft.failTime(d); at < end {
			b.failedDev, b.failTime = d, at
			return start, end, errFailed
		}
	}
	if b.deadline > 0 && end > b.deadline {
		// State is already advanced, so the partial result ends at (and
		// includes) the op that proved the cap unreachable.
		return start, end, errDeadline
	}
	return start, end, nil
}

func (b *backend) BeginRun(d int, run []sched.Action, next int) error {
	// A run that both sends and receives is a batched bidirectional
	// exchange; its waits are cross-communication bubbles. Otherwise the
	// wait belongs to the zone of the next compute op past the run.
	hasSend, hasRecv := false, false
	for _, op := range run {
		if op.Kind == sched.OpSendAct || op.Kind == sched.OpSendGrad {
			hasSend = true
			continue
		}
		hasRecv = true
		if !b.opt.Prefetch {
			// Without prefetch a transfer waits for its receive to be
			// posted, and a batched run posts all of them at entry. Posting
			// them before the run's sends are issued changes nothing: the
			// device's clock stands still, a post resolves only links into
			// the device and a send only links out of it.
			i := b.slot(op.Kind, op.Micro, op.Stage)
			b.post[i] = b.time[d]
			b.transfers[i].posted = true
			b.resolvePosted(i, int(op.Peer), d)
		}
	}
	if hasSend && hasRecv {
		b.pendingZone[d] = ZoneCross
	} else {
		b.pendingZone[d] = b.classify(d, next)
	}
	return nil
}

func (b *backend) Send(d int, a sched.Action) error {
	i := b.slot(a.Kind, a.Micro, a.Stage)
	tr := &b.transfers[i]
	if !tr.produced {
		return unproduced(d, a)
	}
	tr.issued = true
	if b.opt.Prefetch {
		b.resolve(tr, d, int(a.Peer), b.time[d])
		return nil
	}
	b.issue[i] = b.time[d]
	b.resolvePosted(i, d, int(a.Peer))
	return nil
}

// wait advances device d's clock to the arrival, charging the idle gap to
// zone z. Successive waits of one run telescope to the run's max arrival.
func (b *backend) wait(d int, arrival float64, z Zone) {
	if arrival > b.time[d] {
		b.res.Zones[z] += arrival - b.time[d]
		b.time[d] = arrival
	}
}

func (b *backend) Recv(d, idx int, a sched.Action) error {
	i := b.slot(a.Kind, a.Micro, a.Stage)
	tr := &b.transfers[i]
	if !b.opt.Prefetch {
		if !tr.posted {
			// Unbatched mode posts at the op itself, not at group entry.
			b.post[i] = b.time[d]
			tr.posted = true
		}
		b.resolvePosted(i, int(a.Peer), d)
	}
	if !tr.resolved {
		return exec.ErrBlocked
	}
	tr.delivered = true
	z := b.pendingZone[d]
	if !b.opt.BatchComm {
		z = b.classify(d, idx+1)
	}
	b.wait(d, tr.arrival, z)
	if b.deadline > 0 && b.time[d] > b.deadline {
		return errDeadline
	}
	return nil
}

func (b *backend) Drain(d, idx int, a sched.Action) error {
	// Strictly ordered blocking send (unbatched ablation): the device
	// occupies the wire until the transfer completes.
	i := b.slot(a.Kind, a.Micro, a.Stage)
	tr := &b.transfers[i]
	if !tr.issued {
		if err := b.Send(d, a); err != nil {
			return err
		}
	} else {
		b.resolvePosted(i, d, int(a.Peer))
	}
	if !tr.resolved {
		return exec.ErrBlocked
	}
	b.wait(d, tr.arrival, ZoneCross)
	if b.deadline > 0 && b.time[d] > b.deadline {
		return errDeadline
	}
	return nil
}

func (b *backend) Flush(d int, a sched.Action) error {
	b.time[d] += b.opt.FlushTime
	if b.faults != nil {
		// The flush is the last op on every device's list, so a Fail
		// timestamp the compute ops never spanned is caught here: a dead
		// device cannot join the gradient all-reduce. The check mirrors
		// Compute's — the device fails if it dies strictly before the
		// flush would complete. (Slowdowns do not scale the flush — it
		// models a collective, not device compute.)
		if at := b.ft.failTime(d); at < b.time[d] {
			b.failedDev, b.failTime = d, at
			return errFailed
		}
	}
	if b.deadline > 0 && b.time[d] > b.deadline {
		return errDeadline
	}
	return nil
}

func (b *backend) Step(d int, a sched.Action) error { return nil }

// Runner is a reusable simulation handle: it owns the backend's
// transfer/link/zone arenas, the Result buffers and the interpreter's
// timeline storage, growing them monotonically to the largest (P, B, S)
// shape seen, so repeated Runs — wave sweeps, calibration loops, a tuning
// service replaying similar plans — execute at ~0 allocations per run in
// steady state (pinned by a testing.AllocsPerRun regression test).
//
// The zero value is ready to use. A Runner is NOT safe for concurrent use,
// and the *Result it returns (including Records(), Busy, PeakActs, …) is
// owned by the Runner: it is valid only until the next Run. Callers that
// need the result to outlive the next Run must copy what they keep — or
// use the package-level Run, which drives a fresh single-use Runner.
type Runner struct {
	loop exec.Loop
	be   backend
	res  Result
	// last is the latest run's input, which Result.Records replays.
	last struct {
		s        *sched.Schedule
		cost     Cost
		opt      Options
		deadline float64
		faults   *FaultPlan
	}
	// One exactly-sized block backs the per-device slices of the Result
	// and the backend plus the P×P link table; rows are three-indexed so
	// appending to a Result field cannot reach the next.
	floats []float64 // Busy | End | time | linkFree
}

// NewRunner returns an empty Runner; arenas are allocated lazily on first
// use and grown monotonically after that.
func NewRunner() *Runner { return &Runner{} }

// Run executes the schedule against the cost model through the shared
// interpreter, reusing the Runner's arenas. The returned Result is owned
// by the Runner and valid only until the next Run.
func (r *Runner) Run(s *sched.Schedule, cost Cost, opt Options) (*Result, error) {
	res, _, err := r.run(s, cost, opt, 0, nil)
	return res, err
}

// RunFaults executes the schedule under a fault plan, optionally under a
// virtual-clock cap: the one fault-aware entry point. SlowDown and
// LinkDegrade events stretch op durations from their virtual timestamps
// on, and a Fail event aborts the walk with Result.Failed set — the run
// is infeasible on the faulty cluster and Result.Recovery estimates the
// restart-from-checkpoint makespan. cap > 0 aborts the walk exactly as
// RunDeadline does and reports exceeded; a run that hits its Fail event
// before the cap reports the failure verdict instead (exceeded false).
// cap == 0 runs uncapped, and a negative cap is an error. A nil plan with
// cap 0 is bit-for-bit Run. The plan is compiled once per run into
// per-device/per-link timelines, and the compiled arenas grow
// monotonically, so the fault path allocates nothing in steady state —
// pinned by the same AllocsPerRun regression suite as Run. The Result's
// Records() is a replayed view: its first call walks the run again, under
// the same plan and cap, so the plan must not change before it.
func (r *Runner) RunFaults(s *sched.Schedule, cost Cost, opt Options, plan *FaultPlan, cap float64) (*Result, bool, error) {
	if !(cap >= 0) {
		return nil, false, fmt.Errorf("sim: RunFaults cap must be non-negative, got %g", cap)
	}
	if err := plan.Validate(s.P); err != nil {
		return nil, false, err
	}
	return r.run(s, cost, opt, cap, plan)
}

// RunDeadline executes the schedule like Run but aborts the cooperative
// walk the moment any device's virtual clock strictly exceeds cap seconds:
// RunFaults without a fault plan, except that cap must be positive. It
// returns (result, exceeded, err); when exceeded is true the result is
// partial — its Makespan is the clock high-water mark at abort, a proven
// lower bound on the full run's makespan (device clocks only move
// forward) — and its Zones and Records() cover only the executed prefix
// (Records() replays the capped run on its first call). A run finishing
// exactly at cap completes normally, so a throughput tie with a pruning
// cutoff is never lost. The abort path allocates nothing in
// steady state (pinned alongside Run's 0 allocs/op regression test).
func (r *Runner) RunDeadline(s *sched.Schedule, cost Cost, opt Options, cap float64) (*Result, bool, error) {
	if cap <= 0 {
		return nil, false, fmt.Errorf("sim: RunDeadline cap must be positive, got %g", cap)
	}
	return r.run(s, cost, opt, cap, nil)
}

func (r *Runner) run(s *sched.Schedule, cost Cost, opt Options, deadline float64, faults *FaultPlan) (*Result, bool, error) {
	r.last.s, r.last.cost, r.last.opt, r.last.deadline, r.last.faults = s, cost, opt, deadline, faults
	return r.walk(false)
}

// walk simulates the latest run's input into the owned Result, keeping the
// Record timeline only when record is set: a run walks without it, and
// Result.Records replays the run with it.
func (r *Runner) walk(record bool) (*Result, bool, error) {
	s, cost, opt, deadline, faults := r.last.s, r.last.cost, r.last.opt, r.last.deadline, r.last.faults
	p := s.P
	res := &r.res
	res.runner = r
	res.Schedule = s
	res.Makespan = 0
	res.records = nil
	res.Zones = [NumZones]float64{}
	res.Failed = false
	res.FailedDevice = 0
	res.FailTime = 0
	res.Recovery = 0
	r.floats = exec.Arena(r.floats, 3*p+p*p)
	f := r.floats
	res.Busy, res.End = f[:p:p], f[p:2*p:2*p]
	be := &r.be
	be.s, be.cost, be.opt, be.res = s, cost, opt, res
	be.deadline = deadline
	be.faults = faults
	if faults != nil && len(faults.Events) == 0 && faults.RestartCost == 0 {
		be.faults = nil // empty plan: keep the fault-free hot path branch-free
	}
	if be.faults != nil {
		be.ft.compile(be.faults, p)
	}
	be.transfers = exec.Arena(be.transfers, 2*s.B*s.S)
	if !opt.Prefetch {
		be.issue, be.post = exec.Arena(be.issue, 2*s.B*s.S), exec.Arena(be.post, 2*s.B*s.S)
	}
	be.time, be.linkFree = f[2*p:3*p:3*p], f[3*p:]
	be.pendingZone = exec.Arena(be.pendingZone, p)
	var err error
	if xo := (exec.Options{BatchComm: opt.BatchComm}); record {
		res.records, err = r.loop.Run(s, be, xo)
	} else {
		err = r.loop.Walk(s, be, xo)
	}
	res.PeakActs = r.loop.PeakActs() // the walk's own pre-scan, whatever its outcome
	if err != nil {
		if errors.Is(err, errDeadline) {
			// Partial result: the executed prefix's timeline and the clock
			// high-water mark, a proven lower bound on the full makespan.
			// No tail-idle accounting — the walk never reached the flush
			// point, so "finished early" is meaningless here.
			for d := 0; d < p; d++ {
				res.End[d] = be.time[d]
				if be.time[d] > res.Makespan {
					res.Makespan = be.time[d]
				}
			}
			return res, true, nil
		}
		if errors.Is(err, errFailed) {
			// Infeasible, not an error: the device died mid-schedule. The
			// partial result keeps the executed prefix, and Recovery
			// estimates the restart-from-checkpoint iteration: everything
			// up to the failure is lost (FailTime), the cluster pays the
			// plan's RestartCost, then the iteration re-executes — floored
			// by the busiest device's serial compute plus the flush,
			// derived from the schedule and cost model alone so the
			// estimate is independent of where the walk happened to abort.
			for d := 0; d < p; d++ {
				res.End[d] = be.time[d]
				if be.time[d] > res.Makespan {
					res.Makespan = be.time[d]
				}
			}
			res.Failed = true
			res.FailedDevice = be.failedDev
			res.FailTime = be.failTime
			maxWork := 0.0
			for d := 0; d < p; d++ {
				w := 0.0
				for _, a := range s.Lists[d] {
					if a.Kind.IsCompute() {
						w += be.opTime(d, a.Kind, int(a.Stage))
					}
				}
				if w > maxWork {
					maxWork = w
				}
			}
			res.Recovery = be.failTime + be.faults.RestartCost + maxWork + opt.FlushTime
			return res, false, nil
		}
		return nil, false, fmt.Errorf("sim: %w", err)
	}

	for d := 0; d < p; d++ {
		res.End[d] = be.time[d]
		if be.time[d] > res.Makespan {
			res.Makespan = be.time[d]
		}
	}
	// Tail idle: devices finished before the global flush point.
	for d := 0; d < p; d++ {
		res.Zones[ZoneC] += res.Makespan - res.End[d]
	}
	return res, false, nil
}

// Run executes the schedule against the cost model through the shared
// interpreter. It drives a fresh single-use Runner, so the returned Result
// is not shared with any reusable state and may be retained freely.
func Run(s *sched.Schedule, cost Cost, opt Options) (*Result, error) {
	return NewRunner().Run(s, cost, opt)
}

// Validate proves s executable: sched.Validate's structure, then one walk
// of the lists on a fresh Runner, unbatched with prefetch and at zero cost.
// Unbatched, a send never waits, a receive waits for its send and a
// compute for its inputs, so the walk completes exactly when every
// executor can run the lists in order; timing never decides it, which is
// why the costs are zero. A stall wraps sched.ErrDeadlock, and a compute
// reached before its input is an error naming the device and the op.
// Batched execution accepts more — a run's sends are issued before its
// receives wait, whatever their list order — so a schedule every
// simulation completes may still fail this proof.
func Validate(s *sched.Schedule) error {
	if err := sched.Validate(s); err != nil {
		return err
	}
	_, err := NewRunner().Run(s, zeroCost{}, Options{Prefetch: true})
	return err
}

// zeroCost prices every op and transfer at zero.
type zeroCost struct{}

func (zeroCost) ForwardTime(int, int) float64  { return 0 }
func (zeroCost) BackwardTime(int, int) float64 { return 0 }
func (zeroCost) CommTime(int, int) float64     { return 0 }

// Throughput converts a makespan into sequences/s for the given total batch
// rows per iteration.
func Throughput(r *Result, totalRows int) float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(totalRows) / r.Makespan
}
