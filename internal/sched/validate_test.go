package sched

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// roundTrip serializes a (possibly corrupted) schedule and attempts to
// read it back — ReadJSON re-validates, so this drives every reject path
// exactly the way a corrupted on-disk schedule would surface in practice.
func roundTrip(t *testing.T, s *Schedule) error {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	_, err := ReadJSON(&buf)
	return err
}

// mustReject runs one corruption against a fresh base schedule and demands
// both the in-memory validator and the serialize/deserialize path reject
// it with the expected error class.
func mustReject(t *testing.T, base *Schedule, wantSub string, corrupt func(*Schedule)) {
	t.Helper()
	broken := base.Clone()
	corrupt(broken)
	err := Validate(broken)
	if err == nil {
		t.Fatalf("validator accepted a schedule corrupted for %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not mention %q", err, wantSub)
	}
	if rerr := roundTrip(t, broken); rerr == nil {
		t.Fatalf("deserialization accepted a schedule corrupted for %q", wantSub)
	}
}

// findOp locates the first action of kind k, returning (device, index).
func findOp(s *Schedule, k OpKind) (int, int) {
	for d, list := range s.Lists {
		for i, a := range list {
			if a.Kind == k {
				return d, i
			}
		}
	}
	return -1, -1
}

// TestDenseValidatorRejectPaths drives every corruption class the
// map-based predecessor caught through the dense validator: missing and
// duplicated ops, wrong device/chunk placement, out-of-range ids,
// unmatched and endpoint-corrupted transfers, rendezvous deadlock,
// dependency inversion and a missing flush tail.
func TestDenseValidatorRejectPaths(t *testing.T) {
	base, err := Hanayo(4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("missing op", func(t *testing.T) {
		mustReject(t, base, "appears 0 times", func(s *Schedule) {
			d, i := findOp(s, OpBackward)
			s.Lists[d] = append(s.Lists[d][:i:i], s.Lists[d][i+1:]...)
		})
	})
	t.Run("duplicated op", func(t *testing.T) {
		mustReject(t, base, "appears 2 times", func(s *Schedule) {
			d, i := findOp(s, OpForward)
			a := s.Lists[d][i]
			s.Lists[d] = append(s.Lists[d][:i:i], append([]Action{a}, s.Lists[d][i:]...)...)
		})
	})
	t.Run("wrong device", func(t *testing.T) {
		mustReject(t, base, "owned by device", func(s *Schedule) {
			// Move device 0's first compute op onto device 1's list.
			d, i := 0, 0
			for ; i < len(s.Lists[d]); i++ {
				if s.Lists[d][i].Kind.IsCompute() {
					break
				}
			}
			a := s.Lists[d][i]
			s.Lists[d] = append(s.Lists[d][:i:i], s.Lists[d][i+1:]...)
			s.Lists[1] = append([]Action{a}, s.Lists[1]...)
		})
	})
	t.Run("mapping of another shape", func(t *testing.T) {
		// A schedule whose stages outnumber its mapping's — as when a
		// "wave" mapping is rebuilt from an inconsistent W — is an error,
		// not a lookup past the end of the mapping's tables.
		twoWaves, err := Hanayo(4, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		mustReject(t, twoWaves, "needs a mapping of that shape", func(s *Schedule) {
			s.W, s.Mapping = 1, WaveMapping(4, 1)
		})
	})
	t.Run("wrong chunk", func(t *testing.T) {
		mustReject(t, base, "mapping says", func(s *Schedule) {
			d, i := findOp(s, OpForward)
			s.Lists[d][i].Chunk++
		})
	})
	t.Run("out-of-range compute", func(t *testing.T) {
		mustReject(t, base, "out-of-range", func(s *Schedule) {
			d, i := findOp(s, OpForward)
			s.Lists[d][i].Micro = int32(s.B + 3)
		})
	})
	t.Run("out-of-range comm", func(t *testing.T) {
		// The map predecessor indexed transfers by value and surfaced a
		// range corruption only indirectly (deadlock or unconsumed send);
		// the dense validator rejects it statically before indexing.
		mustReject(t, base, "out-of-range", func(s *Schedule) {
			d, i := findOp(s, OpSendAct)
			s.Lists[d][i].Stage = int32(s.S + 1)
		})
	})
	t.Run("bad peer self", func(t *testing.T) {
		mustReject(t, base, "bad peer", func(s *Schedule) {
			d, i := findOp(s, OpSendAct)
			s.Lists[d][i].Peer = int32(d)
		})
	})
	t.Run("unmatched send", func(t *testing.T) {
		// A duplicated send leaves one copy unconsumed after the replay
		// drains (dropping the receive instead would deadlock its consumer
		// first — also caught, below).
		mustReject(t, base, "unconsumed sends", func(s *Schedule) {
			d, i := findOp(s, OpSendAct)
			a := s.Lists[d][i]
			s.Lists[d] = append(s.Lists[d][:i:i], append([]Action{a}, s.Lists[d][i:]...)...)
		})
	})
	t.Run("dropped send deadlocks", func(t *testing.T) {
		drop := func(s *Schedule) {
			d, i := findOp(s, OpSendAct)
			s.Lists[d] = append(s.Lists[d][:i:i], s.Lists[d][i+1:]...)
		}
		mustReject(t, base, "deadlock", drop)
		broken := base.Clone()
		drop(broken)
		if err := Validate(broken); !errors.Is(err, ErrDeadlock) {
			t.Fatalf("a stall must wrap ErrDeadlock, got %v", err)
		}
	})
	// A send reached before the compute that produces its payload has
	// nothing to carry. Each send directly follows its producer, so a swap
	// moves it ahead.
	for _, c := range []struct {
		kind OpKind
		want string
	}{{OpSendAct, "before the forward it carries"}, {OpSendGrad, "before the backward it carries"}} {
		t.Run(c.kind.String()+" before its producer", func(t *testing.T) {
			mustReject(t, base, c.want, func(s *Schedule) {
				d, i := findOp(s, c.kind)
				s.Lists[d][i-1], s.Lists[d][i] = s.Lists[d][i], s.Lists[d][i-1]
			})
		})
	}
	t.Run("corrupted send endpoint", func(t *testing.T) {
		// Redirect one send to a third device: its canonical receive
		// blocks forever — a deadlock, exactly what the executors would do.
		mustReject(t, base, "deadlock", func(s *Schedule) {
			d, i := findOp(s, OpSendAct)
			a := &s.Lists[d][i]
			a.Peer = (a.Peer + 1) % int32(s.P)
			if int(a.Peer) == d {
				a.Peer = (a.Peer + 1) % int32(s.P)
			}
		})
	})
	t.Run("backward before forward", func(t *testing.T) {
		mustReject(t, base, "before its forward", func(s *Schedule) {
			// Find a device whose list holds a forward directly before its
			// own backward (the turn stage) and swap them.
			for d, list := range s.Lists {
				for i := 0; i+1 < len(list); i++ {
					f, b := list[i], list[i+1]
					if f.Kind == OpForward && b.Kind == OpBackward &&
						f.Micro == b.Micro && f.Stage == b.Stage {
						s.Lists[d][i], s.Lists[d][i+1] = b, f
						return
					}
				}
			}
			t.Fatal("no forward/backward pair found to swap")
		})
	})
	t.Run("missing flush tail", func(t *testing.T) {
		mustReject(t, base, "AllReduce, OptimStep", func(s *Schedule) {
			s.Lists[0] = s.Lists[0][:len(s.Lists[0])-1]
		})
	})

	// A wrong list count cannot round-trip JSON (the header P is derived),
	// so it is checked in memory only.
	brokenLists := base.Clone()
	brokenLists.Lists = brokenLists.Lists[:len(brokenLists.Lists)-1]
	if err := Validate(brokenLists); err == nil || !strings.Contains(err.Error(), "lists for") {
		t.Fatalf("truncated list set: %v", err)
	}
}

// TestSplitValidatorRejectPaths drives the zero-bubble vocabulary's
// corruption classes through the same serialize/deserialize gauntlet: a
// weight-grad hoisted before its own input-grad, a flush barrier sliding
// in front of a deferred weight-grad, duplicated and missing weight-grad
// halves, and both mode mismatches (fused backward inside a split scheme,
// split op inside a fused scheme).
func TestSplitValidatorRejectPaths(t *testing.T) {
	base, err := ZBH1(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(base); err != nil {
		t.Fatalf("pristine zbh1 schedule rejected: %v", err)
	}
	if err := roundTrip(t, base); err != nil {
		t.Fatalf("pristine zbh1 schedule fails round-trip: %v", err)
	}

	t.Run("weight-grad before its input-grad", func(t *testing.T) {
		mustReject(t, base, "before its input-grad backward", func(s *Schedule) {
			// Hoist a weight-grad to its matching input-grad's slot; the
			// input-grad stays put, so the only broken edge is B(m,s)→W(m,s).
			for d, list := range s.Lists {
				for j, w := range list {
					if w.Kind != OpBackwardWeight {
						continue
					}
					for i := 0; i < j; i++ {
						bi := list[i]
						if bi.Kind == OpBackwardInput && bi.Micro == w.Micro && bi.Stage == w.Stage {
							copy(s.Lists[d][i+1:j+1], s.Lists[d][i:j])
							s.Lists[d][i] = w
							return
						}
					}
				}
			}
			t.Fatal("no input-grad/weight-grad pair found to hoist")
		})
	})
	t.Run("weight-grad after the flush barrier", func(t *testing.T) {
		mustReject(t, base, "after the flush barrier", func(s *Schedule) {
			// Slide a flush barrier in front of a deferred weight-grad: the
			// optimizer would step on a gradient that is still incomplete.
			d, i := findOp(s, OpBackwardWeight)
			s.Lists[d] = append(s.Lists[d][:i:i],
				append([]Action{{Kind: OpAllReduce}}, s.Lists[d][i:]...)...)
		})
	})
	t.Run("duplicated weight-grad", func(t *testing.T) {
		mustReject(t, base, "appears 2 times", func(s *Schedule) {
			d, i := findOp(s, OpBackwardWeight)
			a := s.Lists[d][i]
			s.Lists[d] = append(s.Lists[d][:i:i], append([]Action{a}, s.Lists[d][i:]...)...)
		})
	})
	t.Run("missing weight-grad", func(t *testing.T) {
		mustReject(t, base, "appears 0 times", func(s *Schedule) {
			d, i := findOp(s, OpBackwardWeight)
			s.Lists[d] = append(s.Lists[d][:i:i], s.Lists[d][i+1:]...)
		})
	})
	t.Run("fused backward in split scheme", func(t *testing.T) {
		mustReject(t, base, "fused backward", func(s *Schedule) {
			d, i := findOp(s, OpBackwardInput)
			s.Lists[d][i].Kind = OpBackward
		})
	})
	t.Run("split op in fused scheme", func(t *testing.T) {
		fused, err := DAPPLE(4, 4)
		if err != nil {
			t.Fatal(err)
		}
		mustReject(t, fused, "split-backward op", func(s *Schedule) {
			d, i := findOp(s, OpBackward)
			s.Lists[d][i].Kind = OpBackwardInput
		})
	})
}

// TestValidatorToleratesRedundantPairedTransfer preserves a subtle
// semantic of the map-based validator: an extra transfer whose endpoints
// do not match any mapping-implied pair is still legal as long as a
// matching receive consumes it (pure redundant traffic; the executors
// would move it without deadlocking). The dense validator keeps these on
// its odd-message fallback list rather than rejecting them.
func TestValidatorToleratesRedundantPairedTransfer(t *testing.T) {
	s, err := DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	broken := s.Clone()
	// Device 3 re-sends micro 0's stage-1 activation to device 0 (not the
	// mapping pair: canonically stage 1 moves 0→1), device 0 receives it.
	broken.Lists[3] = append([]Action{{Kind: OpSendAct, Micro: 0, Stage: 1, Peer: 0}}, broken.Lists[3]...)
	broken.Lists[0] = append([]Action{{Kind: OpRecvAct, Micro: 0, Stage: 1, Peer: 3}}, broken.Lists[0]...)
	if err := Validate(broken); err != nil {
		t.Fatalf("redundant paired transfer must stay legal: %v", err)
	}

	// But the same send without its receive is an unconsumed-send error.
	unpaired := s.Clone()
	unpaired.Lists[3] = append([]Action{{Kind: OpSendAct, Micro: 0, Stage: 1, Peer: 0}}, unpaired.Lists[3]...)
	if err := Validate(unpaired); err == nil || !strings.Contains(err.Error(), "unconsumed") {
		t.Fatalf("unpaired odd transfer: %v", err)
	}
}

// TestValidateAllocsReused pins the check's allocation budget: with warmed
// validator arenas, the structural pass and the replay allocate nothing
// (the standalone Validate pays only its own arena growth).
func TestValidateAllocsReused(t *testing.T) {
	s, err := Hanayo(8, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	var v validator
	if err := v.validate(s); err != nil { // warm the arenas
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if err := v.validate(s); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("warmed validator allocates %.1f times per run, want 0", allocs)
	}
}
