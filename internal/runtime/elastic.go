// Elasticity support: typed device failures, one-shot failure injection,
// and split-invariant weight snapshots. Together they give the drain-and-
// replan recovery loop (core.ElasticSession) everything it needs from the
// engine: a failed Step aborts cleanly without touching parameters,
// AbortReset returns a poisoned engine to the pristine pre-step state so
// the same batch can be retried, and Reshape (runtime.go) carries the
// weights bit-for-bit onto the replanned schedule. Snapshot and Restore
// move weights between engines.
package runtime

import (
	"errors"
	"fmt"
	"slices"
	"sync"

	"repro/internal/tensor"
)

// ErrDeviceFailed is the sentinel wrapped by every DeviceError, so callers
// can test the failure class with errors.Is without holding the concrete
// type.
var ErrDeviceFailed = errors.New("runtime: device failed")

// DeviceError reports a device dying mid-iteration. It unwraps to
// ErrDeviceFailed and is extractable with errors.As; Dev is the pipeline
// rank (device index within a replica) that failed, Micro the micro-batch
// whose compute op it was executing.
type DeviceError struct {
	Dev   int
	Micro int
}

func (e *DeviceError) Error() string {
	return fmt.Sprintf("runtime: device %d failed at micro-batch %d", e.Dev, e.Micro)
}

func (e *DeviceError) Unwrap() error { return ErrDeviceFailed }

// failPoint is an armed one-shot failure injection.
type failPoint struct {
	dev, micro int
}

// failures is the engine's injection state, shared by all replica
// backends; a mutex (not an atomic) because Compute hooks on different
// replicas race to take the same one-shot.
type failures struct {
	mu sync.Mutex
	fp *failPoint
}

// InjectFailure arms a one-shot fault: the next compute op of micro-batch
// micro on pipeline rank dev (in whichever replica reaches it first)
// fails with a DeviceError instead of executing. The iteration then tears
// down exactly like a real mid-step device loss: the concurrent driver
// cancels the replica's peers, Step returns the DeviceError, and no
// parameter or optimizer state has been touched — Step only mutates them
// after every replica joins successfully.
func (e *Engine) InjectFailure(dev, micro int) {
	e.fail.mu.Lock()
	defer e.fail.mu.Unlock()
	e.fail.fp = &failPoint{dev: dev, micro: micro}
}

// takeFailure consumes the armed injection if it matches (dev, micro).
func (e *Engine) takeFailure(dev, micro int) bool {
	e.fail.mu.Lock()
	defer e.fail.mu.Unlock()
	if e.fail.fp != nil && e.fail.fp.dev == dev && e.fail.fp.micro == micro {
		e.fail.fp = nil
		return true
	}
	return false
}

// Snapshot clones the canonical parameters: replica 0, weight copy 0, in
// stage order. Because Model.Split assigns contiguous unit ranges to
// stages, stage-then-param order equals unit order for every stage count —
// a snapshot taken from a P-stage engine restores into an engine split
// any other way, which is what lets drain-and-replan carry weights across
// a schedule change. Replicas and copies hold identical weights by
// construction (same init seed, identical all-reduced updates), so one
// copy is the whole state.
func (e *Engine) Snapshot() []*tensor.Tensor {
	var ws []*tensor.Tensor
	for _, ps := range e.replicas[0].stageParams[0] {
		for _, p := range ps {
			ws = append(ws, p.W.Clone())
		}
	}
	return ws
}

// Restore copies a Snapshot into every replica and weight copy of this
// engine and zeroes the gradient accumulators. The snapshot must come
// from an engine over the same model configuration; the stage split may
// differ.
func (e *Engine) Restore(ws []*tensor.Tensor) error {
	for ri, rep := range e.replicas {
		for ci, stages := range rep.stageParams {
			i := 0
			for _, ps := range stages {
				for _, p := range ps {
					if i >= len(ws) {
						return fmt.Errorf("runtime: snapshot has %d params, replica %d copy %d needs more", len(ws), ri, ci)
					}
					if !slices.Equal(p.W.Shape, ws[i].Shape) {
						return fmt.Errorf("runtime: snapshot param %d shape %v, engine wants %v", i, ws[i].Shape, p.W.Shape)
					}
					p.W.CopyFrom(ws[i])
					clear(p.G.Data)
					i++
				}
			}
			if i != len(ws) {
				return fmt.Errorf("runtime: snapshot has %d params, replica %d copy %d uses %d", len(ws), ri, ci, i)
			}
		}
	}
	return nil
}

// AbortReset returns the engine to the pristine between-iterations state
// after a failed Step: gradient accumulators are zeroed (an aborted
// iteration leaves partial sums behind), every router's in-flight
// payloads are discarded, every buffer the iteration still held — in a
// worker's tables, in a mailbox, in a saved context — goes back to its
// workspace, and each replica's workspaces refill one another to the pools
// the last flush left, so the retry runs as warm as any step. Parameters
// and optimizer state are untouched — a failed Step
// never reached them — so the same batch can be retried, on this engine
// as it is or reshaped onto a replanned schedule, with results identical
// to a run where the failure never happened.
func (e *Engine) AbortReset() {
	for _, rep := range e.replicas {
		for _, p := range rep.params {
			clear(p.G.Data)
		}
		// Mailboxes first: once they are empty nothing references the
		// payloads, and the workers' sweeps take them back.
		rep.router.Discard()
		for _, w := range rep.workers {
			w.reclaim()
		}
		for _, w := range rep.workers {
			for _, o := range rep.workers {
				if o != w {
					w.ws.Refill(o.ws)
				}
			}
		}
	}
}
