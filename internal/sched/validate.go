package sched

import "fmt"

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
//     pair, and the rendezvous pattern cannot deadlock;
//  4. each list ends with AllReduce then OptimStep (flush completeness),
//     and no compute op — in particular no deferred weight-grad — appears
//     after the flush barrier.
//
// A nil return means any executor can run the schedule to completion.
//
// This is the entry point for deserialized and hand-built schedules.
// Generator output arrives already validated (generation fuses the same
// replay), so re-validating it is never necessary. The checks run on dense
// index arithmetic over the generator's task-id scheme — the map-based
// predecessor built four maps over 2·B·S tasks per call, which dominated
// sweep-sized generation.
func Validate(s *Schedule) error {
	var v validator
	return v.validate(s, true)
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
// when the arenas are reused (the Generator's fused path), no allocations.
// The zero value is ready to use; not safe for concurrent use.
type validator struct {
	seen     []int32  // compute-op occurrence counts (static pass)
	computed []bool   // forward/backward completion flags (replay)
	sent     []int32  // outstanding canonical sends per payload id
	recvd    []bool   // canonical payload delivered at its consumer
	pc       []int    // per-device program counters
	odd      []oddMsg // non-canonical transfers (see oddMsg)
}

// validate runs the check. static toggles the structural pass (list/tail
// shape, per-op ranges, mapping conformance, exactly-once coverage); the
// Generator's fused path skips it because construction establishes every
// structural property, leaving only the rendezvous replay to prove.
func (v *validator) validate(s *Schedule, static bool) error {
	if static {
		if err := v.checkStatic(s); err != nil {
			return err
		}
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
				if flushed {
					return fmt.Errorf("sched: device %d: compute op %v after the flush barrier", d, a)
				}
				if !split && (a.Kind == OpBackwardInput || a.Kind == OpBackwardWeight) {
					return fmt.Errorf("sched: device %d: split-backward op %v in fused-backward scheme %q", d, a, s.Scheme)
				}
				if split && a.Kind == OpBackward {
					return fmt.Errorf("sched: device %d: fused backward %v in split-backward scheme %q", d, a, s.Scheme)
				}
				if a.Micro < 0 || a.Micro >= s.B || a.Stage < 0 || a.Stage >= s.S {
					return fmt.Errorf("sched: device %d: out-of-range %v", d, a)
				}
				if want := m.Device(a.Micro, a.Stage); want != d {
					return fmt.Errorf("sched: device %d executes %v owned by device %d", d, a, want)
				}
				if want := m.Chunk(a.Micro, a.Stage); want != a.Chunk {
					return fmt.Errorf("sched: device %d: %v has chunk %d, mapping says %d", d, a, a.Chunk, want)
				}
				id := a.Micro*s.S + a.Stage
				switch a.Kind {
				case OpBackward, OpBackwardInput:
					id += s.B * s.S
				case OpBackwardWeight:
					id += 2 * s.B * s.S
				}
				v.seen[id]++
			case OpSendAct, OpRecvAct, OpSendGrad, OpRecvGrad:
				if a.Peer < 0 || a.Peer >= s.P || a.Peer == d {
					return fmt.Errorf("sched: device %d: bad peer in %v", d, a)
				}
				if a.Micro < 0 || a.Micro >= s.B || a.Stage < 0 || a.Stage >= s.S {
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
		switch a.Kind {
		case OpForward:
			if a.Stage > 0 {
				if src := m.Device(a.Micro, a.Stage-1); src == d {
					if !v.computed[a.Micro*s.S+a.Stage-1] {
						return false, nil
					}
				} else if !v.recvd[a.Micro*s.S+a.Stage] {
					return false, nil
				}
			}
			v.computed[a.Micro*s.S+a.Stage] = true
		case OpBackward, OpBackwardInput:
			if !v.computed[a.Micro*s.S+a.Stage] {
				return false, fmt.Errorf("sched: device %d runs %v before its forward", d, a)
			}
			if a.Stage < s.S-1 {
				if src := m.Device(a.Micro, a.Stage+1); src == d {
					if !v.computed[s.B*s.S+a.Micro*s.S+a.Stage+1] {
						return false, nil
					}
				} else if !v.recvd[s.B*s.S+a.Micro*s.S+a.Stage] {
					return false, nil
				}
			}
			v.computed[s.B*s.S+a.Micro*s.S+a.Stage] = true
		case OpBackwardWeight:
			// The weight-grad's only dependency is its own input-grad, which
			// lives on the same device (same stage, same weights) — so a W
			// reached before its B can never unblock: a hard order error,
			// not a rendezvous stall.
			if !v.computed[s.B*s.S+a.Micro*s.S+a.Stage] {
				return false, fmt.Errorf("sched: device %d runs %v before its input-grad backward", d, a)
			}
		case OpSendAct:
			v.send(payload{OpSendAct, a.Micro, a.Stage, d, a.Peer},
				canonActPayload(s, a.Micro, a.Stage, d, a.Peer))
		case OpSendGrad:
			v.send(payload{OpSendGrad, a.Micro, a.Stage, d, a.Peer},
				canonGradPayload(s, a.Micro, a.Stage, d, a.Peer))
		case OpRecvAct:
			if !v.recv(payload{OpSendAct, a.Micro, a.Stage, a.Peer, d},
				canonActPayload(s, a.Micro, a.Stage, a.Peer, d)) {
				return false, nil
			}
		case OpRecvGrad:
			if !v.recv(payload{OpSendGrad, a.Micro, a.Stage, a.Peer, d},
				canonGradPayload(s, a.Micro, a.Stage, a.Peer, d)) {
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
			return fmt.Errorf("sched: deadlock — device %d stuck at %v (pc=%d)", d0, s.Lists[d0][v.pc[d0]], v.pc[d0])
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
