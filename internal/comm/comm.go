// Package comm is the in-process stand-in for NCCL point-to-point
// communication (paper §4.2): a message router with tagged mailboxes,
// asynchronous sends and posted receives (prefetching); exec groups a
// device's comm runs into batches. One Router serves one pipeline
// replica; workers are goroutines. Sends never block (bounded only by
// memory), which gives the same progress guarantees as batch_isend_irecv
// and makes wave pipelines' bidirectional exchanges deadlock-free.
package comm

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/tensor"
)

// Kind is the payload class of a transfer.
type Kind uint8

const (
	Act  Kind = iota // a stage's output, travelling forward
	Grad             // an output gradient, travelling backward
)

// String renders the kind as the tag diagnostics always have.
func (k Kind) String() string {
	if k == Grad {
		return "grad"
	}
	return "act"
}

// Tag identifies one transfer: payload kind, micro-batch, stage and the
// directed device pair, in the int32 widths of the sched.Action it comes
// from.
type Tag struct {
	Kind  Kind
	Micro int32
	Stage int32
	Src   int32
	Dst   int32
}

// String renders the tag for diagnostics.
func (t Tag) String() string {
	return fmt.Sprintf("%s m%d s%d %d->%d", t.Kind, t.Micro, t.Stage, t.Src, t.Dst)
}

// Stats aggregates router counters. Durations are wall-clock and only
// meaningful relatively (this is an in-process transport).
type Stats struct {
	Messages     int64
	Bytes        int64
	RecvWaits    int64         // receives that blocked
	PrefetchHits int64         // receives satisfied instantly
	WaitTime     time.Duration // total blocked time in Recv
}

// Router moves tensors between workers of one pipeline replica.
type Router struct {
	mu sync.Mutex
	// boxes holds one mailbox per tag ever used, of capacity 1: a tag is
	// sent at most once per iteration. A schedule repeats its tags every
	// iteration, so Reset and Discard empty the mailboxes and keep them.
	boxes  map[Tag]chan *tensor.Tensor
	stats  Stats
	closed bool
}

// NewRouter returns an empty router.
func NewRouter() *Router {
	return &Router{boxes: map[Tag]chan *tensor.Tensor{}}
}

// box returns t's mailbox, creating it on first use. r.mu must be held.
func (r *Router) box(t Tag) chan *tensor.Tensor {
	if r.closed {
		panic("comm: router used after Close")
	}
	ch, ok := r.boxes[t]
	if !ok {
		ch = make(chan *tensor.Tensor, 1)
		r.boxes[t] = ch
	}
	return ch
}

// Send delivers payload under tag t without blocking the caller.
// Each tag may be sent at most once between Resets.
func (r *Router) Send(t Tag, payload *tensor.Tensor) {
	r.mu.Lock()
	defer r.mu.Unlock()
	select {
	case r.box(t) <- payload:
		r.stats.Messages++
		r.stats.Bytes += payload.NumBytes()
	default:
		panic(fmt.Sprintf("comm: duplicate send for tag %v", t))
	}
}

// Recv blocks until the payload tagged t arrives.
func (r *Router) Recv(t Tag) *tensor.Tensor {
	p, _ := r.RecvAbort(t, nil)
	return p
}

// RecvAbort blocks like Recv but additionally observes a cancellation
// channel: when done closes before the payload arrives it returns
// ok=false. A nil done degenerates to Recv. This is what lets the exec
// interpreter's concurrent driver tear down peers after a hook error
// instead of leaving them blocked forever.
func (r *Router) RecvAbort(t Tag, done <-chan struct{}) (*tensor.Tensor, bool) {
	r.mu.Lock()
	ch := r.box(t)
	select {
	case p := <-ch:
		r.stats.PrefetchHits++
		r.mu.Unlock()
		return p, true
	default:
	}
	r.mu.Unlock()
	// Only a receive that has to wait pays for the clock and a second
	// visit to the lock.
	start := time.Now()
	select {
	case p := <-ch:
		r.mu.Lock()
		r.stats.RecvWaits++
		r.stats.WaitTime += time.Since(start)
		r.mu.Unlock()
		return p, true
	case <-done:
		return nil, false
	}
}

// Stats returns a snapshot of the counters.
func (r *Router) Stats() Stats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.stats
}

// drain empties every mailbox, keeping the mailboxes themselves, and
// reports how many payloads it dropped and the tag of one of them.
func (r *Router) drain() (n int, dropped Tag) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for t, ch := range r.boxes {
		select {
		case <-ch:
			n, dropped = n+1, t
		default:
		}
	}
	return n, dropped
}

// Reset ends an iteration so its tags can repeat. Every mailbox must be
// empty — the schedule should have consumed every message — and an
// undelivered one is an error (it is dropped, so the router is clean
// either way).
func (r *Router) Reset() error {
	if n, t := r.drain(); n > 0 {
		return fmt.Errorf("comm: undelivered message %v at reset", t)
	}
	return nil
}

// Discard empties all mailboxes, undelivered payloads included, and
// reports how many it threw away. This is the teardown path after an
// aborted iteration — peers were canceled mid-schedule, so in-flight
// messages are expected, unlike Reset, which treats them as schedule
// bugs. The router is immediately reusable.
func (r *Router) Discard() int {
	n, _ := r.drain()
	return n
}

// Close marks the router unusable; subsequent use panics. It helps catch
// worker leaks in tests.
func (r *Router) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
}
