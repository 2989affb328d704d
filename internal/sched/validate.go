package sched

import (
	"errors"
	"fmt"
	"slices"
)

// ErrDeadlock is wrapped by every report that batched rendezvous execution
// of a schedule's lists stalls: Validate's replay and the cooperative
// executor's walk (exec.Loop.Run) alike, so errors.Is finds it through a
// simulated sweep cell's error as well as through Validate's.
var ErrDeadlock = errors.New("communication deadlock")

// Validate proves a schedule is executable and complete. It abstractly
// executes the per-device lists with batched-communication semantics
// (consecutive comm ops post together, as the executors do) and checks:
//
//  1. every (micro, stage) forward and backward appears exactly once, on
//     the device and chunk the mapping dictates — for split-backward
//     (zero-bubble) schedules, "backward" means the OpBackwardInput /
//     OpBackwardWeight pair, each exactly once, and fused and split
//     backward vocabularies never mix within one schedule;
//  2. per-device order is consistent with the data dependencies
//     F(m,s-1)→F(m,s), F(m,S-1)→B(m,S-1), B(m,s+1)→B(m,s), and for split
//     schedules B(m,s)→W(m,s) (a weight-grad never precedes its own
//     input-grad);
//  3. every cross-device dependency has exactly one matching send/recv
//     pair, each send follows the compute that produces its payload, and
//     the rendezvous pattern cannot deadlock;
//  4. each list ends with AllReduce then OptimStep (flush completeness),
//     and no compute op — in particular no deferred weight-grad — appears
//     after the flush barrier.
//
// A nil return means any executor can run the schedule to completion; a
// stall wraps ErrDeadlock.
//
// This is the one full check: the one-shot constructors, deserialization
// and hand-built schedules go through it. A reusable Generator's output
// skips it — construction proves every property but the rendezvous one,
// and the simulation a sweep runs on the schedule walks the same lists
// under the same batched rules, so its run is that proof. The checks run
// on dense index arithmetic over the generator's task-id scheme — the
// map-based predecessor built four maps over 2·B·S tasks per call.
func Validate(s *Schedule) error {
	var v validator
	return v.validate(s)
}

// payload identifies one transfer for error reporting: the moving tensor
// (activation of / gradient into (micro, stage)) plus its endpoints.
type payload struct {
	Kind         OpKind // OpSendAct or OpSendGrad
	Micro, Stage int
	Src, Dst     int
}

// oddMsg tracks in-flight transfers whose endpoints differ from the
// mapping-implied canonical pair. Valid generated schedules never produce
// one — the engine's emit writes exactly the canonical endpoints — so this
// fallback list exists to keep exact map-predecessor semantics on
// corrupted or hand-built inputs: such transfers may still pair up with a
// matching receive, and any leftover is an unconsumed-send error.
type oddMsg struct {
	p payload
	n int32
}

// validator owns the dense arenas of the schedule executability check. All
// per-task state is indexed by the generator's dense id scheme — forwards
// and activation payloads at micro·S+stage, backwards and gradient
// payloads offset by B·S — so validation performs no map operations and,
// when the arenas are reused, no allocations. The zero value is ready to
// use; not safe for concurrent use.
type validator struct {
	seen     []int32  // compute-op occurrence counts (static pass)
	computed []bool   // forward/backward completion flags (replay)
	sent     []int32  // outstanding canonical sends per payload id
	recvd    []bool   // canonical payload delivered at its consumer
	pc       []int    // per-device program counters
	odd      []oddMsg // non-canonical transfers (see oddMsg)
}

// validate runs the check: the structural pass (list/tail shape, per-op
// ranges, mapping conformance, exactly-once coverage), then the rendezvous
// replay.
func (v *validator) validate(s *Schedule) error {
	if err := v.checkStatic(s); err != nil {
		return err
	}
	return v.replay(s)
}

// canonActPayload returns the dense id of activation payload (micro,
// stage) if (src, dst) are the endpoints the mapping dictates, else -1.
func canonActPayload(s *Schedule, micro, stage, src, dst int) int {
	if stage < 1 || stage >= s.S ||
		src != s.Mapping.Device(micro, stage-1) || dst != s.Mapping.Device(micro, stage) {
		return -1
	}
	return micro*s.S + stage
}

// canonGradPayload is canonActPayload for gradient payloads (offset into
// the backward half of the id space).
func canonGradPayload(s *Schedule, micro, stage, src, dst int) int {
	if stage < 0 || stage >= s.S-1 ||
		src != s.Mapping.Device(micro, stage+1) || dst != s.Mapping.Device(micro, stage) {
		return -1
	}
	return s.B*s.S + micro*s.S + stage
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

// checkStatic is the structural pass: shape, ranges, mapping conformance,
// flush-barrier placement and exactly-once compute coverage.
func (v *validator) checkStatic(s *Schedule) error {
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
	v.seen = arena(v.seen, segs*s.B*s.S)
	for d, list := range s.Lists {
		if len(list) < 2 ||
			list[len(list)-2].Kind != OpAllReduce ||
			list[len(list)-1].Kind != OpOptimStep {
			return fmt.Errorf("sched: device %d list does not end with AllReduce, OptimStep", d)
		}
		flushed := false
		for _, a := range list {
			switch a.Kind {
			case OpForward, OpBackward, OpBackwardInput, OpBackwardWeight:
				micro, stage := int(a.Micro), int(a.Stage)
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
					id += s.B * s.S
				case OpBackwardWeight:
					id += 2 * s.B * s.S
				}
				v.seen[id]++
			case OpSendAct, OpRecvAct, OpSendGrad, OpRecvGrad:
				if peer := int(a.Peer); peer < 0 || peer >= s.P || peer == d {
					return fmt.Errorf("sched: device %d: bad peer in %v", d, a)
				}
				if a.Micro < 0 || int(a.Micro) >= s.B || a.Stage < 0 || int(a.Stage) >= s.S {
					return fmt.Errorf("sched: device %d: out-of-range %v", d, a)
				}
			case OpAllReduce:
				flushed = true
			}
		}
	}
	for id, n := range v.seen {
		if n != 1 {
			half := s.B * s.S
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
	return nil
}

// replay abstractly executes the lists with batched rendezvous semantics:
// round-robin over devices, each advancing through every op whose
// prerequisites (computed predecessor, delivered payload, posted send) are
// already met, until all lists drain or no device can move — a deadlock.
func (v *validator) replay(s *Schedule) error {
	m := s.Mapping
	n := 2 * s.B * s.S
	v.computed = arena(v.computed, n)
	v.sent = arena(v.sent, n)
	v.recvd = arena(v.recvd, n)
	v.pc = arena(v.pc, s.P)
	v.odd = v.odd[:0]

	// step reports whether device d's next op can complete, advancing pc.
	step := func(d int) (bool, error) {
		list := s.Lists[d]
		if v.pc[d] >= len(list) {
			return false, nil
		}
		a := list[v.pc[d]]
		micro, stage, peer := int(a.Micro), int(a.Stage), int(a.Peer)
		switch a.Kind {
		case OpForward:
			if stage > 0 {
				if src := m.Device(micro, stage-1); src == d {
					if !v.computed[micro*s.S+stage-1] {
						return false, nil
					}
				} else if !v.recvd[micro*s.S+stage] {
					return false, nil
				}
			}
			v.computed[micro*s.S+stage] = true
		case OpBackward, OpBackwardInput:
			if !v.computed[micro*s.S+stage] {
				return false, fmt.Errorf("sched: device %d runs %v before its forward", d, a)
			}
			if stage < s.S-1 {
				if src := m.Device(micro, stage+1); src == d {
					if !v.computed[s.B*s.S+micro*s.S+stage+1] {
						return false, nil
					}
				} else if !v.recvd[s.B*s.S+micro*s.S+stage] {
					return false, nil
				}
			}
			v.computed[s.B*s.S+micro*s.S+stage] = true
		case OpBackwardWeight:
			// The weight-grad's only dependency is its own input-grad, which
			// lives on the same device (same stage, same weights) — so a W
			// reached before its B can never unblock: a hard order error,
			// not a rendezvous stall.
			if !v.computed[s.B*s.S+micro*s.S+stage] {
				return false, fmt.Errorf("sched: device %d runs %v before its input-grad backward", d, a)
			}
		case OpSendAct:
			// A canonical payload's producer, F(micro, stage−1), runs on
			// the sender: reached before it, the send has nothing to carry
			// — an order error, not a stall.
			id := canonActPayload(s, micro, stage, d, peer)
			if id >= 0 && !v.computed[id-1] {
				return false, fmt.Errorf("sched: device %d runs %v before the forward it carries", d, a)
			}
			v.send(payload{OpSendAct, micro, stage, d, peer}, id)
		case OpSendGrad:
			// Likewise for the gradient's producer, B(micro, stage+1).
			id := canonGradPayload(s, micro, stage, d, peer)
			if id >= 0 && !v.computed[id+1] {
				return false, fmt.Errorf("sched: device %d runs %v before the backward it carries", d, a)
			}
			v.send(payload{OpSendGrad, micro, stage, d, peer}, id)
		case OpRecvAct:
			if !v.recv(payload{OpSendAct, micro, stage, peer, d},
				canonActPayload(s, micro, stage, peer, d)) {
				return false, nil
			}
		case OpRecvGrad:
			if !v.recv(payload{OpSendGrad, micro, stage, peer, d},
				canonGradPayload(s, micro, stage, peer, d)) {
				return false, nil
			}
		case OpAllReduce, OpOptimStep:
			// Flush ops always runnable once reached.
		}
		v.pc[d]++
		return true, nil
	}

	for {
		progress := false
		doneAll := true
		for d := 0; d < s.P; d++ {
			for {
				ok, err := step(d)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
				progress = true
			}
			if v.pc[d] < len(s.Lists[d]) {
				doneAll = false
			}
		}
		if doneAll {
			break
		}
		if !progress {
			d0 := -1
			for d := 0; d < s.P; d++ {
				if v.pc[d] < len(s.Lists[d]) {
					d0 = d
					break
				}
			}
			return fmt.Errorf("sched: %w — device %d stuck at %v (pc=%d)", ErrDeadlock, d0, s.Lists[d0][v.pc[d0]], v.pc[d0])
		}
	}

	// Every send consumed.
	half := s.B * s.S
	for id, cnt := range v.sent {
		if cnt != 0 {
			p := payload{Kind: OpSendAct, Micro: (id % half) / s.S, Stage: id % s.S}
			if id >= half {
				p.Kind = OpSendGrad
				p.Src, p.Dst = m.Device(p.Micro, p.Stage+1), m.Device(p.Micro, p.Stage)
			} else {
				p.Src, p.Dst = m.Device(p.Micro, p.Stage-1), m.Device(p.Micro, p.Stage)
			}
			return fmt.Errorf("sched: %d unconsumed sends of %+v", cnt, p)
		}
	}
	for i := range v.odd {
		if v.odd[i].n != 0 {
			return fmt.Errorf("sched: %d unconsumed sends of %+v", v.odd[i].n, v.odd[i].p)
		}
	}
	return nil
}

// send posts one transfer: canonical payloads count in the dense arena,
// anything else lands on the odd list.
func (v *validator) send(p payload, id int) {
	if id >= 0 {
		v.sent[id]++
		return
	}
	for i := range v.odd {
		if v.odd[i].p == p {
			v.odd[i].n++
			return
		}
	}
	v.odd = append(v.odd, oddMsg{p: p, n: 1})
}

// recv consumes a posted transfer, reporting false (blocked) when no
// matching send is outstanding.
func (v *validator) recv(p payload, id int) bool {
	if id >= 0 {
		if v.sent[id] == 0 {
			return false
		}
		v.sent[id]--
		v.recvd[id] = true
		return true
	}
	for i := range v.odd {
		if v.odd[i].p == p {
			if v.odd[i].n == 0 {
				return false
			}
			v.odd[i].n--
			return true
		}
	}
	return false
}
