package sched

import (
	"errors"
	"fmt"
	"slices"
)

// ErrDeadlock is wrapped by every report that the cooperative executor's
// walk of a schedule's lists (exec.Loop.Run) stalls, so errors.Is finds it
// through a simulated sweep cell's error and through sim.Validate's alike.
var ErrDeadlock = errors.New("communication deadlock")

// Validate proves a schedule's structure. It reads each list once and
// checks:
//
//  1. every (micro, stage) forward and backward appears exactly once, on
//     the device and chunk the mapping dictates — for split-backward
//     (zero-bubble) schedules, "backward" means the OpBackwardInput /
//     OpBackwardWeight pair, each exactly once, and fused and split
//     backward vocabularies never mix within one schedule;
//  2. every comm op sits on its payload's own link — a send on the device
//     of the compute that produces the payload, addressed to the device of
//     the compute that consumes it, a receive the other way round — and
//     each payload is sent at most once, received at most once and never
//     sent without being received;
//  3. each list ends with AllReduce then OptimStep (flush completeness),
//     and no compute op — in particular no deferred weight-grad — appears
//     after the flush barrier.
//
// It does not prove that the lists run: that every receive meets its send
// and every compute finds its input in time is a property of executing
// them, and whatever executes a schedule proves it — every simulation
// refuses a compute reached before its input and reports a stall wrapping
// ErrDeadlock, and sim.Validate is that walk for a schedule about to be
// trained on. The one-shot constructors and deserialization run this
// check; a reusable Generator's output skips it, being built to it. The
// counts live in one dense arena over the generator's task-id scheme.
func Validate(s *Schedule) error {
	var v validator
	return v.validate(s)
}

// validator owns the dense arena of the structural check, indexed by the
// generator's dense id scheme: compute-op occurrence counts — forwards at
// micro·S+stage, backwards offset by B·S, weight-grad halves by 2·B·S —
// then per payload (activations into micro·S+stage, gradients offset by
// B·S) the sends and, 2·B·S further on, the receives. Validation performs
// no map operations and, when the arena is reused, no allocations. The
// zero value is ready to use; not safe for concurrent use.
type validator struct {
	seen []int32
}

// Split reports whether s uses the split-backward (zero-bubble)
// vocabulary. Schemes ParseScheme knows are classified by their
// descriptor, so a declared-fused scheme carrying split ops (or vice versa)
// is caught as a mode mismatch; unknown (hand-built) schemes are
// classified by the ops they actually contain.
func (s *Schedule) Split() bool {
	if sc, err := ParseScheme(s.Scheme); err == nil {
		return sc.Split()
	}
	for _, list := range s.Lists {
		for _, a := range list {
			if a.Kind == OpBackwardInput || a.Kind == OpBackwardWeight {
				return true
			}
		}
	}
	return false
}

// PeakActs writes each device's peak count of live stage-activations into
// dst, reusing its storage, and returns it. A forward makes one activation
// live; a fused backward or an input-gradient half releases it; a
// weight-gradient half is neutral. A device's count changes only at its
// own compute ops, which every executor retires in list order, so the peak
// is a per-device prefix scan: timing shifts when an op runs, never whether
// it runs before the next one on the same device.
func (s *Schedule) PeakActs(dst []int) []int {
	dst = slices.Grow(dst[:0], s.P)[:s.P]
	for d := range dst {
		dst[d], _ = ListPeakActs(s.Lists[d])
	}
	return dst
}

// ListPeakActs returns one device's peak count of live stage-activations,
// by PeakActs' rule, and its number of compute ops (OpKind.IsCompute): what
// an executor learns from a list before walking it, in one scan.
func ListPeakActs(list []Action) (peak, compute int) {
	live := 0
	for _, a := range list {
		switch a.Kind {
		case OpForward:
			if live++; live > peak {
				peak = live
			}
			compute++
		case OpBackward, OpBackwardInput:
			live--
			compute++
		case OpBackwardWeight:
			compute++
		}
	}
	return peak, compute
}

// validate is the structural pass: shape, ranges, mapping conformance,
// flush-barrier placement, exactly-once compute coverage and the
// communication rule.
func (v *validator) validate(s *Schedule) error {
	m := s.Mapping
	if m == nil || m.P != s.P || m.S != s.S {
		// The mapping's tables cover exactly its own shape.
		return fmt.Errorf("sched: schedule of P=%d S=%d needs a mapping of that shape", s.P, s.S)
	}
	if len(s.Lists) != s.P {
		return fmt.Errorf("sched: %d lists for %d devices", len(s.Lists), s.P)
	}
	split := s.Split()
	segs := 2
	if split {
		segs = 3 // forwards, input-grads, weight-grads
	}
	half := s.B * s.S
	sends := segs * half    // per-payload send counts, 2·B·S of them
	recvs := sends + 2*half // then the receive counts
	v.seen = arena(v.seen, recvs+2*half)
	for d, list := range s.Lists {
		if len(list) < 2 ||
			list[len(list)-2].Kind != OpAllReduce ||
			list[len(list)-1].Kind != OpOptimStep {
			return fmt.Errorf("sched: device %d list does not end with AllReduce, OptimStep", d)
		}
		flushed := false
		for _, a := range list {
			micro, stage := int(a.Micro), int(a.Stage)
			switch a.Kind {
			case OpForward, OpBackward, OpBackwardInput, OpBackwardWeight:
				if flushed {
					return fmt.Errorf("sched: device %d: compute op %v after the flush barrier", d, a)
				}
				if !split && (a.Kind == OpBackwardInput || a.Kind == OpBackwardWeight) {
					return fmt.Errorf("sched: device %d: split-backward op %v in fused-backward scheme %q", d, a, s.Scheme)
				}
				if split && a.Kind == OpBackward {
					return fmt.Errorf("sched: device %d: fused backward %v in split-backward scheme %q", d, a, s.Scheme)
				}
				if micro < 0 || micro >= s.B || stage < 0 || stage >= s.S {
					return fmt.Errorf("sched: device %d: out-of-range %v", d, a)
				}
				if want := m.Device(micro, stage); want != d {
					return fmt.Errorf("sched: device %d executes %v owned by device %d", d, a, want)
				}
				if want := m.Chunk(micro, stage); want != int(a.Chunk) {
					return fmt.Errorf("sched: device %d: %v has chunk %d, mapping says %d", d, a, a.Chunk, want)
				}
				id := micro*s.S + stage
				switch a.Kind {
				case OpBackward, OpBackwardInput:
					id += half
				case OpBackwardWeight:
					id += 2 * half
				}
				v.seen[id]++
			case OpSendAct, OpRecvAct, OpSendGrad, OpRecvGrad:
				peer := int(a.Peer)
				if peer < 0 || peer >= s.P || peer == d {
					return fmt.Errorf("sched: device %d: bad peer in %v", d, a)
				}
				if micro < 0 || micro >= s.B || stage < 0 || stage >= s.S {
					return fmt.Errorf("sched: device %d: out-of-range %v", d, a)
				}
				// The payload into stage is the activation of stage−1 or
				// the gradient of stage+1; it moves from that stage's
				// device to stage's own.
				grad := a.Kind == OpSendGrad || a.Kind == OpRecvGrad
				from, id := stage-1, micro*s.S+stage
				if grad {
					from, id = stage+1, id+half
				}
				if from < 0 || from >= s.S {
					return fmt.Errorf("sched: device %d: %v carries no payload", d, a)
				}
				src, dst := d, peer
				if a.Kind == OpRecvAct || a.Kind == OpRecvGrad {
					src, dst = peer, d
					id += recvs
				} else {
					id += sends
				}
				if wsrc, wdst := m.Device(micro, from), m.Device(micro, stage); src != wsrc || dst != wdst {
					return fmt.Errorf("sched: device %d: %v is off its payload's link %d→%d", d, a, wsrc, wdst)
				}
				v.seen[id]++
			case OpAllReduce:
				flushed = true
			}
		}
	}
	for id, n := range v.seen[:sends] {
		if n != 1 {
			seg, rest := id/half, id%half
			op := OpForward
			switch seg {
			case 1:
				op = OpBackward
				if split {
					op = OpBackwardInput
				}
			case 2:
				op = OpBackwardWeight
			}
			return fmt.Errorf("sched: (micro=%d, stage=%d, op=%v) appears %d times",
				rest/s.S, rest%s.S, op, n)
		}
	}
	for id, sent := range v.seen[sends:recvs] {
		// A receive without its send is left to the walk: it stalls there.
		if recvd := v.seen[recvs+id]; sent > 1 || recvd > 1 || sent > recvd {
			what, rest := "activation into", id
			if id >= half {
				what, rest = "gradient into", id-half
			}
			return fmt.Errorf("sched: %s (micro=%d, stage=%d): %d sends, %d receives",
				what, rest/s.S, rest%s.S, sent, recvd)
		}
	}
	return nil
}
