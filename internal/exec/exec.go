// Package exec is the shared pipeline-execution kernel: a single
// action-list interpreter that walks sched.Schedule per-device programs —
// compute ops, batched communication runs, flush — and delegates every
// semantic decision to a Backend. The two executors of the paper's design
// are backends of this one interpreter: internal/sim plugs in a timing
// backend (virtual time, Fig 7 bubble zones), internal/runtime plugs in a
// real-tensor backend (goroutine workers over the comm router). Both
// therefore share one implementation of program counters, comm-run
// batching, send/recv ordering and flush semantics, and both produce the
// same Record timeline type from the same walking loop.
//
// A batched comm run enters in one move: the backend's BeginRun sees the
// whole run (a timing backend registers its receives there), then the
// interpreter issues the run's sends in list order, then the receives
// complete in list order.
//
// Two drivers expose the interpreter:
//
//   - Loop.Run walks all devices cooperatively in one goroutine,
//     round-robin with deadlock detection: each device retires ops until
//     it blocks or finishes. Backends signal "cannot complete yet" by
//     returning ErrBlocked from Recv/Drain; the driver retries after other
//     devices make progress. This is the discrete-event mode, driven by
//     internal/sim; Loop.Walk is the same walk without the Record timeline.
//   - Replicas.Run walks each device of each data-parallel replica in its
//     own goroutine, one instruction group at a time so a device observes
//     cancellation between groups. Backends block inside Recv instead of
//     returning ErrBlocked. This is the real training mode, driven by
//     internal/runtime.
//
// Both drivers execute the identical state machine (see advance), so
// executor semantics — what a batched run issues first, when receives
// complete, how the flush terminates a list — are defined exactly once.
package exec

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/sched"
)

// ErrBlocked is returned by a cooperative backend's Recv or Drain hook
// when the awaited payload has not arrived yet. The cooperative driver
// yields to other devices and retries; if no device can make progress the
// driver reports a communication deadlock. The driver compares the error
// with ErrBlocked itself, so a hook returns the sentinel unwrapped: a
// wrapped ErrBlocked is reported as the hook's failure, not retried.
// Concurrent backends never return it — they block instead.
var ErrBlocked = errors.New("exec: blocked")

// ErrCanceled is returned (wrapped) by a concurrent backend's blocking
// hooks after the driver's done channel closed — another device's hook
// failed and the iteration is being torn down. Replicas.Run reports the
// originating error, not the ErrCanceled echoes it provoked.
var ErrCanceled = errors.New("exec: canceled")

// Cancellable is an optional Backend extension for concurrent execution.
// Replicas.Run installs its done channel before any device starts walking;
// the channel closes when any device's hook returns an error, and blocking
// Recv/Drain implementations must then abort (returning an error wrapping
// ErrCanceled) instead of waiting for a payload that will never arrive.
type Cancellable interface {
	SetDone(done <-chan struct{})
}

// Options tune interpreter semantics shared by every backend.
type Options struct {
	// BatchComm treats each maximal run of consecutive comm ops as one
	// batched isend/irecv group (paper §4.2): all sends of the run are
	// issued at group entry, then the receives complete in list order.
	// When false, comm ops execute strictly one at a time in list order —
	// the NCCL-hazard ablation that can deadlock bidirectional schedules.
	BatchComm bool
}

// DefaultOptions is the paper-faithful interpreter configuration.
func DefaultOptions() Options { return Options{BatchComm: true} }

// Record is one executed compute action with its time span. The timing
// backend reports virtual time, the real-tensor backend wall-clock seconds
// since iteration start; the interpreter collects both into the same
// per-device timeline shape.
type Record struct {
	Action sched.Action
	Start  float64
	End    float64
}

// Backend implements the executor semantics behind the interpreter's
// hooks. Hooks are invoked per device; under Replicas.Run each device's
// hooks run on that device's goroutine, so per-device state needs no
// locking but anything shared across devices does.
type Backend interface {
	// Compute executes one OpForward/OpBackward and reports its time span
	// for the interpreter's Record timeline.
	Compute(dev int, a sched.Action) (start, end float64, err error)
	// BeginRun announces entry into a batched comm run, before any of its
	// sends is issued: run is the maximal consecutive comm-op slice and
	// next the list index one past it (for lookahead-based accounting such
	// as bubble-zone classification). A backend that must register
	// receives ahead of time — a timing backend without prefetch —
	// registers the run's receives here; a real transport with buffered
	// mailboxes needs nothing.
	BeginRun(dev int, run []sched.Action, next int) error
	// Send issues one send of a batched run. It must not block: batched
	// groups issue every send before any receive completes, which is what
	// makes bidirectional exchanges deadlock-free.
	Send(dev int, a sched.Action) error
	// Recv completes one receive. idx is the op's index in the device's
	// list. Cooperative backends return ErrBlocked itself (not wrapped) if
	// the payload has not arrived; concurrent backends block until it has.
	Recv(dev, idx int, a sched.Action) error
	// Drain executes one strictly-ordered send in unbatched mode:
	// blocking-send semantics, completing only when the wire accepts the
	// payload. Cooperative backends may return ErrBlocked itself (not
	// wrapped).
	Drain(dev, idx int, a sched.Action) error
	// Flush handles OpAllReduce and Step handles OpOptimStep. Executors
	// that synchronize the flush across devices outside the interpreter
	// (the real runtime joins all workers first) implement these as no-ops.
	Flush(dev int, a sched.Action) error
	Step(dev int, a sched.Action) error
}

// machine is one device's interpreter state.
type machine struct {
	dev     int
	list    []sched.Action
	pc      int
	entered bool // current batched run already issued its sends
	runEnd  int  // one past the current comm run (valid while entered)
	idx     int  // next op to complete inside the entered run
}

func isSend(k sched.OpKind) bool { return k == sched.OpSendAct || k == sched.OpSendGrad }

// interp is one replica of one interpreter invocation: options, the
// replica's backend and its collected per-device Record timelines (each
// device appends only to its own slice; nil records keeps no timeline).
type interp struct {
	opt     Options
	backend Backend
	records [][]Record
}

// advance retires device m's instruction groups in list order — exactly
// one when once is set, otherwise until the device blocks or finishes —
// and reports whether it retired anything. A (false, nil) return means the
// device is finished or blocked; the caller distinguishes via m.pc. Entry
// into a batched comm run is a group of its own, and so is completing the
// run's receives. This is the one action-list walking loop shared by both
// executors.
func (ex *interp) advance(m *machine, once bool) (bool, error) {
	b, list, d := ex.backend, m.list, m.dev
	progress := false
	for m.pc < len(list) {
		if progress && once {
			return true, nil
		}
		a := list[m.pc]
		switch {
		case a.Kind.IsCompute():
			start, end, err := b.Compute(d, a)
			if err != nil {
				return progress, err
			}
			if ex.records != nil {
				ex.records[d] = append(ex.records[d], Record{Action: a, Start: start, End: end})
			}
			m.pc++

		case !a.Kind.IsComm():
			var err error
			switch a.Kind {
			case sched.OpAllReduce:
				err = b.Flush(d, a)
			case sched.OpOptimStep:
				err = b.Step(d, a)
			}
			if err != nil {
				return progress, err
			}
			m.pc++

		case !ex.opt.BatchComm:
			// Strict in-order ablation: one comm op per group, sends block.
			var err error
			if isSend(a.Kind) {
				err = b.Drain(d, m.pc, a)
			} else {
				err = b.Recv(d, m.pc, a)
			}
			if err != nil {
				if err == ErrBlocked {
					return progress, nil
				}
				return progress, err
			}
			m.pc++

		case !m.entered:
			// Group entry: announce the maximal consecutive comm run, then
			// issue every send of it in list order before waiting on
			// anything (batch_isend_irecv semantics).
			m.runEnd = m.pc
			for m.runEnd < len(list) && list[m.runEnd].Kind.IsComm() {
				m.runEnd++
			}
			run := list[m.pc:m.runEnd]
			if err := b.BeginRun(d, run, m.runEnd); err != nil {
				return progress, err
			}
			for _, op := range run {
				if isSend(op.Kind) {
					if err := b.Send(d, op); err != nil {
						return progress, err
					}
				}
			}
			m.entered = true
			m.idx = m.pc

		default:
			// Waiting phase: complete the run's receives in list order.
			for ; m.idx < m.runEnd; m.idx++ {
				op := list[m.idx]
				if isSend(op.Kind) {
					continue
				}
				if err := b.Recv(d, m.idx, op); err != nil {
					if err == ErrBlocked {
						return progress, nil
					}
					return progress, err
				}
			}
			m.pc = m.runEnd
			m.entered = false
		}
		progress = true
	}
	return progress, nil
}

// Arena reslices s to n elements, reallocating only when capacity is
// insufficient (monotonic growth) and zeroing the active window, so
// reused storage starts every run in the fresh-allocation state. The one
// shared grow-or-reuse helper behind the reusable backend's arenas
// (sim.Runner); Loop.prepare's timeline block
// deliberately differs — timelines are append-only rows of length 0, so
// nothing is zero-filled.
func Arena[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// Loop is a reusable interpreter driver: it owns the per-device machine
// states and Record timeline arenas and grows them monotonically to the
// largest schedule shape it has driven, so repeated runs of same-shaped
// schedules (wave sweeps, calibration loops, a tuning service) allocate
// nothing in steady state. The zero value is ready to use. A Loop is NOT
// safe for concurrent runs; the timelines returned by Run are owned by the
// Loop and valid only until its next run.
type Loop struct {
	flat    []Record   // every timeline, back to back
	records [][]Record // rows of flat, replica-major: replica r's device d at r·P+d
	ms      []machine
	ops     []int // per device compute-op count (scratch)
	peaks   []int // per device activation peak (PeakActs)
}

// prepare resets the Loop for replicas copies of schedule s, reusing
// machine and timeline storage when the arenas are already large enough.
// With record, each timeline is a row of one flat block, sized at its
// device's exact compute-op count — the walking loop never grows a Record
// slice mid-run — and three-indexed, so one device's appends cannot reach
// its neighbour's; without it no timeline is laid out and the returned
// rows are nil. The scan that counts the compute ops also takes each
// device's activation peak (sched.ListPeakActs), so no caller scans the
// lists again.
func (l *Loop) prepare(s *sched.Schedule, replicas int, record bool) [][]Record {
	n := replicas * s.P
	if cap(l.ms) < n {
		l.ms = make([]machine, n)
		l.records = make([][]Record, n)
	}
	l.ms, l.records = l.ms[:n], l.records[:n]
	l.ops, l.peaks = Arena(l.ops, s.P), Arena(l.peaks, s.P)
	total := 0
	for d := 0; d < s.P; d++ {
		l.peaks[d], l.ops[d] = sched.ListPeakActs(s.Lists[d])
		total += l.ops[d]
	}
	for i := range l.ms {
		l.ms[i] = machine{dev: i % s.P, list: s.Lists[i%s.P]}
	}
	if !record {
		return nil
	}
	if cap(l.flat) < replicas*total {
		l.flat = make([]Record, replicas*total)
	}
	off := 0
	for i := range l.records {
		d := i % s.P
		l.records[i] = l.flat[off : off : off+l.ops[d]]
		off += l.ops[d]
	}
	return l.records
}

// PeakActs returns each device's peak count of live stage-activations in
// the schedule the Loop last ran — sched.Schedule.PeakActs, taken by the
// scan that sized the timelines, whatever the run's outcome. It is owned
// by the Loop and valid until its next run.
func (l *Loop) PeakActs() []int { return l.peaks[:len(l.peaks):len(l.peaks)] }

// Run drives the interpreter cooperatively in a single goroutine: devices
// advance round-robin, each as far as it can, and a full pass with no
// progress is a communication deadlock, reported as an error wrapping
// sched.ErrDeadlock at the lowest unfinished device. Returns the per-device
// compute Record timelines (owned by the Loop, valid until its next run),
// also the executed prefix when a hook fails. This is the driver for
// discrete-event (timing) backends.
func (l *Loop) Run(s *sched.Schedule, b Backend, opt Options) ([][]Record, error) {
	recs := l.prepare(s, 1, true)
	return recs, l.walk(interp{opt: opt, backend: b, records: recs})
}

// Walk is Run without the Record timeline: the same hooks in the same
// order, for a caller that needs only the backend's own accounting.
func (l *Loop) Walk(s *sched.Schedule, b Backend, opt Options) error {
	l.prepare(s, 1, false)
	return l.walk(interp{opt: opt, backend: b})
}

func (l *Loop) walk(ex interp) error {
	ms := l.ms
	for {
		progress := false
		done := true
		for d := range ms {
			ok, err := ex.advance(&ms[d], false)
			if err != nil {
				return err
			}
			progress = progress || ok
			if ms[d].pc < len(ms[d].list) {
				done = false
			}
		}
		if done {
			return nil
		}
		if !progress {
			for d := range ms {
				if ms[d].pc < len(ms[d].list) {
					return fmt.Errorf("exec: %w at device %d op %v (batchComm=%v)",
						sched.ErrDeadlock, d, ms[d].list[ms[d].pc], ex.opt.BatchComm)
				}
			}
		}
	}
}

// Replicas is the reusable concurrent driver of a training engine: it walks
// every data-parallel replica of a schedule at once, and on top of a Loop's
// arenas keeps the join and cancellation state between runs, so a warm run
// allocates nothing beyond one closure per device goroutine. The zero value
// is ready to use; it is NOT safe for concurrent runs and must not be
// copied after first use. Timelines are valid until the next Run.
type Replicas struct {
	loop    Loop
	records [][][]Record // views of the loop's timelines, one per replica
	exs     []interp     // one per replica
	// done is closed by the first failing device of a run and replaced
	// before the next; errs holds at most one error per device goroutine.
	done     chan struct{}
	canceled atomic.Bool
	errs     chan error
	wg       sync.WaitGroup
}

// Run drives len(backends) replicas of schedule s, one goroutine per
// (replica, device), replica r's hooks going to backends[r]; the backends'
// Recv blocks instead of returning ErrBlocked. The result is replica r's
// per-device timelines at index r.
//
// The first hook error cancels the run: the driver closes a done channel
// (installed via the optional Cancellable extension before any device
// starts), so peers blocked in Recv abort instead of waiting forever on
// payloads the failed device will never send. The replicas share this one
// cancellation, so a hook error on any device of any replica stands every
// other device down within one op. The originating error is reported; the
// ErrCanceled echoes from aborted peers are suppressed. Backends that do
// not implement Cancellable must not fail mid-schedule while peers block
// (schedules passing sim.Validate cannot reach the built-in backends'
// error paths). All device goroutines are joined before returning — also
// on the cancellation path — so the driver is immediately reusable after a
// failed run and a canceled run leaks nothing.
func (g *Replicas) Run(s *sched.Schedule, backends []Backend, opt Options) ([][][]Record, error) {
	l := &g.loop
	l.prepare(s, len(backends), true)
	if cap(g.exs) < len(backends) {
		g.exs = make([]interp, len(backends))
		g.records = make([][][]Record, len(backends))
	}
	g.exs = g.exs[:len(backends)]
	g.records = g.records[:len(backends)]
	if g.done == nil || g.canceled.Load() {
		g.done = make(chan struct{})
		g.canceled.Store(false)
	}
	if cap(g.errs) < len(l.ms) {
		g.errs = make(chan error, len(l.ms)) // one send per device goroutine
	}
	for r, b := range backends {
		g.records[r] = l.records[r*s.P : (r+1)*s.P]
		g.exs[r] = interp{opt: opt, backend: b, records: g.records[r]}
		if c, ok := b.(Cancellable); ok {
			c.SetDone(g.done)
		}
	}
	g.wg.Add(len(l.ms))
	for i := range l.ms {
		go g.walk(&g.exs[i/s.P], &l.ms[i])
	}
	g.wg.Wait()
	// Prefer the error that started the teardown over the cancellation
	// echoes it provoked in peers.
	var report error
	for len(g.errs) > 0 {
		err := <-g.errs
		if report == nil || errors.Is(report, ErrCanceled) && !errors.Is(err, ErrCanceled) {
			report = err
		}
	}
	return g.records, report
}

// walk is one device goroutine of a concurrent run.
func (g *Replicas) walk(ex *interp, m *machine) {
	defer g.wg.Done()
	for {
		// Observe cancellation between instruction groups, too: a device
		// that is compute-bound (never blocks in Recv) must still stand
		// down promptly when a peer's hook failed, or teardown latency is
		// bounded by its remaining work instead of one op.
		select {
		case <-g.done:
			g.errs <- fmt.Errorf("exec: device %d stopped by teardown: %w", m.dev, ErrCanceled)
			return
		default:
		}
		ok, err := ex.advance(m, true)
		if err == nil && !ok && m.pc < len(m.list) {
			err = fmt.Errorf("exec: backend blocked device %d at %v in concurrent mode", m.dev, m.list[m.pc])
		}
		if err != nil {
			g.errs <- err
			if g.canceled.CompareAndSwap(false, true) {
				close(g.done)
			}
			return
		}
		if !ok {
			return
		}
	}
}
