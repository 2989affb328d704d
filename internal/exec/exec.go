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
// Two drivers expose the interpreter:
//
//   - Loop.Run walks all devices cooperatively in one goroutine,
//     round-robin with deadlock detection. Backends signal "cannot
//     complete yet" by returning ErrBlocked from Recv/Drain; the driver
//     retries after other devices make progress. This is the
//     discrete-event mode, driven by internal/sim.
//   - Replicas.Run walks each device of each data-parallel replica in its
//     own goroutine. Backends block inside Recv instead of returning
//     ErrBlocked. This is the real training mode, driven by
//     internal/runtime.
//
// Both drivers execute the identical per-step state machine (see step), so
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
	// issued and all receives posted at group entry, then the receives
	// complete in list order. When false, comm ops execute strictly one at
	// a time in list order — the NCCL-hazard ablation that can deadlock
	// bidirectional schedules.
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
	// BeginRun announces entry into a batched comm run: run is the maximal
	// consecutive comm-op slice and next the list index one past it (for
	// lookahead-based accounting such as bubble-zone classification).
	BeginRun(dev int, run []sched.Action, next int) error
	// Send issues one send of a batched run. It must not block: batched
	// groups issue every send before any receive completes, which is what
	// makes bidirectional exchanges deadlock-free.
	Send(dev int, a sched.Action) error
	// Post registers one receive of a batched run at group entry — the
	// prefetch bookkeeping point for timing backends; a no-op for real
	// transports with buffered mailboxes.
	Post(dev int, a sched.Action) error
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
	entered bool // current batched run already issued its sends/posts
	runEnd  int  // one past the current comm run (valid while entered)
	idx     int  // next op to complete inside the entered run
}

func isSend(k sched.OpKind) bool { return k == sched.OpSendAct || k == sched.OpSendGrad }

// interp is one replica of one interpreter invocation: options, the
// replica's backend and its collected per-device Record timelines (each
// device appends only to its own slice).
type interp struct {
	opt     Options
	backend Backend
	records [][]Record
}

// step advances device m by at most one instruction group and reports
// whether it retired anything. A (false, nil) return means the device is
// finished or blocked; the caller distinguishes via m.pc. This is the one
// action-list walking loop shared by both executors.
func (ex *interp) step(m *machine) (bool, error) {
	if m.pc >= len(m.list) {
		return false, nil
	}
	b := ex.backend
	a := m.list[m.pc]
	switch {
	case a.Kind.IsCompute():
		start, end, err := b.Compute(m.dev, a)
		if err != nil {
			return false, err
		}
		ex.records[m.dev] = append(ex.records[m.dev], Record{Action: a, Start: start, End: end})
		m.pc++
		return true, nil

	case a.Kind.IsComm():
		if !ex.opt.BatchComm {
			// Strict in-order ablation: one comm op per step, sends block.
			var err error
			if isSend(a.Kind) {
				err = b.Drain(m.dev, m.pc, a)
			} else {
				err = b.Recv(m.dev, m.pc, a)
			}
			if err != nil {
				if err == ErrBlocked {
					return false, nil
				}
				return false, err
			}
			m.pc++
			return true, nil
		}
		if !m.entered {
			// Group entry: issue every send and post every receive of the
			// maximal consecutive comm run, in list order, before waiting
			// on anything (batch_isend_irecv semantics).
			m.runEnd = m.pc
			for m.runEnd < len(m.list) && m.list[m.runEnd].Kind.IsComm() {
				m.runEnd++
			}
			run := m.list[m.pc:m.runEnd]
			if err := b.BeginRun(m.dev, run, m.runEnd); err != nil {
				return false, err
			}
			for _, op := range run {
				var err error
				if isSend(op.Kind) {
					err = b.Send(m.dev, op)
				} else {
					err = b.Post(m.dev, op)
				}
				if err != nil {
					return false, err
				}
			}
			m.entered = true
			m.idx = m.pc
			return true, nil
		}
		// Waiting phase: complete the run's receives in list order.
		for m.idx < m.runEnd {
			op := m.list[m.idx]
			if isSend(op.Kind) {
				m.idx++
				continue
			}
			if err := b.Recv(m.dev, m.idx, op); err != nil {
				if err == ErrBlocked {
					return false, nil
				}
				return false, err
			}
			m.idx++
		}
		m.pc = m.runEnd
		m.entered = false
		return true, nil

	case a.Kind == sched.OpAllReduce:
		if err := ex.backend.Flush(m.dev, a); err != nil {
			return false, err
		}
		m.pc++
		return true, nil

	case a.Kind == sched.OpOptimStep:
		if err := ex.backend.Step(m.dev, a); err != nil {
			return false, err
		}
		m.pc++
		return true, nil
	}
	m.pc++
	return true, nil
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
// Each timeline is a row of one flat block, sized at its device's exact
// compute-op count — the walking loop never grows a Record slice mid-run —
// and three-indexed, so one device's appends cannot reach its neighbour's.
// The scan that counts the compute ops also takes each device's
// activation peak (sched.ListPeakActs), so no caller scans the lists again.
func (l *Loop) prepare(s *sched.Schedule, replicas int) {
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
	if cap(l.flat) < replicas*total {
		l.flat = make([]Record, replicas*total)
	}
	off := 0
	for i := range l.ms {
		d := i % s.P
		l.records[i] = l.flat[off : off : off+l.ops[d]]
		off += l.ops[d]
		l.ms[i] = machine{dev: d, list: s.Lists[d]}
	}
}

// PeakActs returns each device's peak count of live stage-activations in
// the schedule the Loop last ran — sched.Schedule.PeakActs, taken by the
// scan that sized the timelines, whatever the run's outcome. It is owned
// by the Loop and valid until its next run.
func (l *Loop) PeakActs() []int { return l.peaks[:len(l.peaks):len(l.peaks)] }

// Run drives the interpreter cooperatively in a single goroutine: devices
// advance round-robin as far as they can, and a full pass with no progress
// is a communication deadlock, reported as an error wrapping
// sched.ErrDeadlock. Returns the per-device compute Record timelines (owned
// by the Loop, valid until its next run). This is the driver for
// discrete-event (timing) backends.
func (l *Loop) Run(s *sched.Schedule, b Backend, opt Options) ([][]Record, error) {
	l.prepare(s, 1)
	ex := interp{opt: opt, backend: b, records: l.records}
	ms := l.ms
	for {
		progress := false
		done := true
		for d := 0; d < s.P; d++ {
			for {
				ok, err := ex.step(&ms[d])
				if err != nil {
					return ex.records, err
				}
				if !ok {
					break
				}
				progress = true
			}
			if ms[d].pc < len(ms[d].list) {
				done = false
			}
		}
		if done {
			return ex.records, nil
		}
		if !progress {
			for d := 0; d < s.P; d++ {
				if ms[d].pc < len(ms[d].list) {
					return ex.records, fmt.Errorf("exec: %w at device %d op %v (batchComm=%v)",
						sched.ErrDeadlock, d, ms[d].list[ms[d].pc], opt.BatchComm)
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
// (schedules passing sched.Validate cannot reach the built-in backends'
// error paths). All device goroutines are joined before returning — also
// on the cancellation path — so the driver is immediately reusable after a
// failed run and a canceled run leaks nothing.
func (g *Replicas) Run(s *sched.Schedule, backends []Backend, opt Options) ([][][]Record, error) {
	l := &g.loop
	l.prepare(s, len(backends))
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
		// Observe cancellation between steps, too: a device that is
		// compute-bound (never blocks in Recv) must still stand down
		// promptly when a peer's hook failed, or teardown latency is
		// bounded by its remaining work instead of one op.
		select {
		case <-g.done:
			g.errs <- fmt.Errorf("exec: device %d stopped by teardown: %w", m.dev, ErrCanceled)
			return
		default:
		}
		ok, err := ex.step(m)
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
