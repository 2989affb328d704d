package sched_test

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	. "repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// These tests hold what the package generates and reads to sim.Validate,
// which proves the lists run: Validate proves structure only, and the
// walk that proves the rest lives in internal/sim.

// loadAndProve writes a (possibly corrupted) schedule as JSON, reads it
// back and proves what ReadJSON accepts — the path a hand-edited document
// takes before it is trained on (hanayo-sched -load).
func loadAndProve(t *testing.T, s *Schedule) error {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, s); err != nil {
		t.Fatalf("serialize: %v", err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		return err
	}
	return sim.Validate(got)
}

// mustReject runs one corruption against a fresh copy of base and demands
// that sim.Validate reject it with the expected error, and the load path
// reject it too. It returns sim.Validate's error.
func mustReject(t *testing.T, base *Schedule, wantSub string, corrupt func(*Schedule)) error {
	t.Helper()
	broken := base.Clone()
	corrupt(broken)
	err := sim.Validate(broken)
	if err == nil {
		t.Fatalf("validator accepted a schedule corrupted for %q", wantSub)
	}
	if !strings.Contains(err.Error(), wantSub) {
		t.Fatalf("error %q does not mention %q", err, wantSub)
	}
	if lerr := loadAndProve(t, broken); lerr == nil {
		t.Fatalf("the load path accepted a schedule corrupted for %q", wantSub)
	}
	return err
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

// build returns f's schedule or fails the test.
func build(t *testing.T, f func() (*Schedule, error)) *Schedule {
	t.Helper()
	s, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestDenseValidatorRejectPaths drives every corruption class through
// sim.Validate and the load path: missing and duplicated ops, wrong
// device/chunk placement, out-of-range ids and a missing flush tail
// (Validate's structure), a transfer sent twice or off its payload's link
// (its communication rule), and a dropped send, a send ahead of its
// producer and a backward ahead of its forward (the walk).
func TestDenseValidatorRejectPaths(t *testing.T) {
	base := build(t, func() (*Schedule, error) { return Hanayo(4, 1, 4) })

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
		twoWaves := build(t, func() (*Schedule, error) { return Hanayo(4, 2, 4) })
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
		// Rejected statically, before any table is indexed with it.
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
		// A duplicated send: the payload is sent twice.
		mustReject(t, base, "2 sends, 1 receives", func(s *Schedule) {
			d, i := findOp(s, OpSendAct)
			a := s.Lists[d][i]
			s.Lists[d] = append(s.Lists[d][:i:i], append([]Action{a}, s.Lists[d][i:]...)...)
		})
	})
	t.Run("dropped send deadlocks", func(t *testing.T) {
		// The receive is left waiting for a send that never comes.
		err := mustReject(t, base, "deadlock", func(s *Schedule) {
			d, i := findOp(s, OpSendAct)
			s.Lists[d] = append(s.Lists[d][:i:i], s.Lists[d][i+1:]...)
		})
		if !errors.Is(err, ErrDeadlock) {
			t.Fatalf("a stall must wrap ErrDeadlock, got %v", err)
		}
	})
	// A send reached before the compute that produces its payload has
	// nothing to carry. Each send directly follows its producer, so a swap
	// moves it ahead.
	for _, kind := range []OpKind{OpSendAct, OpSendGrad} {
		t.Run(kind.String()+" before its producer", func(t *testing.T) {
			mustReject(t, base, "before the compute that produces its payload", func(s *Schedule) {
				d, i := findOp(s, kind)
				s.Lists[d][i-1], s.Lists[d][i] = s.Lists[d][i], s.Lists[d][i-1]
			})
		})
	}
	t.Run("corrupted send endpoint", func(t *testing.T) {
		// Redirect one send to a third device: it leaves its payload's link.
		mustReject(t, base, "off its payload's link", func(s *Schedule) {
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
	if err := sim.Validate(brokenLists); err == nil || !strings.Contains(err.Error(), "lists for") {
		t.Fatalf("truncated list set: %v", err)
	}
}

// TestSplitValidatorRejectPaths drives the zero-bubble vocabulary's
// corruption classes through the same gauntlet: a weight-grad hoisted
// before its own input-grad, a flush barrier sliding in front of a
// deferred weight-grad, duplicated and missing weight-grad halves, and
// both mode mismatches (fused backward inside a split scheme, split op
// inside a fused scheme).
func TestSplitValidatorRejectPaths(t *testing.T) {
	base := build(t, func() (*Schedule, error) { return ZBH1(4, 4) })
	if err := sim.Validate(base); err != nil {
		t.Fatalf("pristine zbh1 schedule rejected: %v", err)
	}
	if err := loadAndProve(t, base); err != nil {
		t.Fatalf("pristine zbh1 schedule fails the load path: %v", err)
	}

	t.Run("weight-grad before its input-grad", func(t *testing.T) {
		mustReject(t, base, "before its input-grad half", func(s *Schedule) {
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
		fused := build(t, func() (*Schedule, error) { return DAPPLE(4, 4) })
		mustReject(t, fused, "split-backward op", func(s *Schedule) {
			d, i := findOp(s, OpBackward)
			s.Lists[d][i].Kind = OpBackwardInput
		})
	})
}

func TestAllSchemesValidate(t *testing.T) {
	cases := []struct {
		name string
		f    func() (*Schedule, error)
	}{
		{"gpipe-4-4", func() (*Schedule, error) { return GPipe(4, 4) }},
		{"gpipe-8-8", func() (*Schedule, error) { return GPipe(8, 8) }},
		{"dapple-4-4", func() (*Schedule, error) { return DAPPLE(4, 4) }},
		{"dapple-8-16", func() (*Schedule, error) { return DAPPLE(8, 16) }},
		{"chimera-4-4", func() (*Schedule, error) { return Chimera(4, 4) }},
		{"chimera-8-8", func() (*Schedule, error) { return Chimera(8, 8) }},
		{"hanayo-w1-4-4", func() (*Schedule, error) { return Hanayo(4, 1, 4) }},
		{"hanayo-w2-4-4", func() (*Schedule, error) { return Hanayo(4, 2, 4) }},
		{"hanayo-w4-4-8", func() (*Schedule, error) { return Hanayo(4, 4, 8) }},
		{"hanayo-w2-8-8", func() (*Schedule, error) { return Hanayo(8, 2, 8) }},
		{"chimera-wave-8-8", func() (*Schedule, error) { return ByName("chimera-wave", 8, 8) }},
		{"interleaved-v2-4-8", func() (*Schedule, error) { return Interleaved(4, 2, 8) }},
		{"async-4-4x3", func() (*Schedule, error) { return AsyncOneFOneB(4, 4, 3) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if err := sim.Validate(build(t, c.f)); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestValidateQuickRandomConfigs(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		p := 2 + r.Intn(6)
		w := 1 + r.Intn(3)
		b := 2 * (1 + r.Intn(5))
		var s *Schedule
		var err error
		switch r.Intn(4) {
		case 0:
			s, err = GPipe(p, b)
		case 1:
			s, err = DAPPLE(p, b)
		case 2:
			s, err = Chimera(p, b)
		default:
			s, err = Hanayo(p, w, b)
		}
		if err != nil {
			return false
		}
		return sim.Validate(s) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"gpipe", "dapple", "1f1b", "chimera", "chimera-wave", "hanayo-w2", "interleaved-v2"} {
		s, err := ByName(name, 4, 4)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := sim.Validate(s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	if _, err := ByName("nope", 4, 4); err == nil {
		t.Fatal("expected error for unknown scheme")
	}
}

func TestGEMSValidatesAndIsSlow(t *testing.T) {
	s, err := GEMS(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := sim.Validate(s); err != nil {
		t.Fatal(err)
	}
	if s.Mapping.WeightReplicas != 2 {
		t.Fatal("GEMS stores two replicas")
	}
	if _, err := GEMS(4, 3); err == nil {
		t.Fatal("odd B must fail")
	}
}

func TestJSONRoundTripProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		p := 2 + r.Intn(4)
		w := 1 + r.Intn(2)
		b := 2 * (1 + r.Intn(3))
		orig, err := Hanayo(p, w, b)
		if err != nil {
			return false
		}
		var buf bytes.Buffer
		if WriteJSON(&buf, orig) != nil {
			return false
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			return false
		}
		return sim.Validate(got) == nil && got.NumActions() == orig.NumActions()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestGeneratedSchedulesValidate holds Generate's output to sim.Validate,
// which Generate leaves to the simulation that runs it. One reused
// Generator compiles every scheme name ParseScheme accepts (FuzzSchemes)
// at every P and B in {2, 4, 8, 16, 32} the scheme's placement allows,
// the shapes cycled large and small so the arenas grow and shrink between
// compiles as a sweep worker's do.
func TestGeneratedSchedulesValidate(t *testing.T) {
	g := NewGenerator()
	for _, p := range []int{2, 32, 4, 16, 8} {
		for _, b := range []int{32, 2, 16, 4, 8} {
			for _, scheme := range FuzzSchemes {
				sc, err := ParseScheme(scheme)
				if err != nil {
					t.Fatal(err)
				}
				if sc.CheckB(b) != nil {
					continue
				}
				s, err := g.Generate(scheme, p, b)
				if err != nil {
					t.Fatalf("%s P=%d B=%d: %v", scheme, p, b, err)
				}
				if err := sim.Validate(s); err != nil {
					t.Fatalf("%s P=%d B=%d: generated schedule fails sim.Validate: %v", scheme, p, b, err)
				}
			}
		}
	}
}

// FuzzGenerate: for any scheme, P ∈ [0, 16], B ∈ [0, 24], ordering costs,
// EagerW and — through the test seam — a priority, a phase barrier and a
// cap table that no family row need produce, Generate either returns a
// schedule that sim.Validate accepts and that equals, action for action,
// the reference path's, or an error that the reference path reports too.
// It never ends in the stall guard. Under the family's own priority,
// barrier and caps (prio, barrier and capSeed all 0, as in the corpus
// files recorded before those arguments existed) the error comes only
// from an input the engine rejects up front (P or B out of range, a cost
// that is not positive and finite, costs large enough to overflow an
// instant); with the knobs drawn, a barrier under a bounded cap may also
// run out of eligible tasks.
//
// prio%3 is the family's priority, backwards first or forwards first;
// barrier%3 the family's barrier, none or GPipe's; a non-zero capSeed draws
// every (stage, chunk) cap from unbounded, 1 and 2…S.
func FuzzGenerate(f *testing.F) {
	f.Add(uint8(6), uint8(4), uint8(8), 1.0, 2.0, 0.05, 1.0, false, uint8(0), uint8(0), uint64(0))        // hanayo-w1 at the default costs
	f.Add(uint8(11), uint8(8), uint8(16), 1.0, 1.0, 0.0, 1.0, true, uint8(0), uint8(0), uint64(0))        // zbh1, EagerW, free transfers
	f.Add(uint8(0), uint8(16), uint8(24), 1.0, 1.5, 0.0, 1.0, false, uint8(0), uint8(0), uint64(0))       // hanayo-w8, many ties
	f.Add(uint8(4), uint8(4), uint8(3), 1.0, 2.0, 0.05, 1.0, false, uint8(0), uint8(0), uint64(0))        // chimera at odd B
	f.Add(uint8(3), uint8(4), uint8(4), math.NaN(), 2.0, 0.05, 1.0, false, uint8(0), uint8(0), uint64(0)) // dapple, NaN Tf
	f.Add(uint8(7), uint8(4), uint8(4), 1.0, 2.0, math.Inf(1), 1.0, false, uint8(0), uint8(0), uint64(0)) // hanayo-w2, +Inf Tc
	f.Add(uint8(1), uint8(0), uint8(4), 1.0, 2.0, 0.05, 1.0, false, uint8(0), uint8(0), uint64(0))        // interleaved-v3, P = 0
	f.Add(uint8(7), uint8(8), uint8(8), 1e-20, 1e10, 0.05, 1.0, false, uint8(0), uint8(0), uint64(0))     // hanayo-w2, Tf vanishing: the single-instant fallback
	f.Add(uint8(11), uint8(8), uint8(16), 1.0, 2.0, 0.05, 0.01, true, uint8(0), uint8(0), uint64(0))      // zbh1, Tw ≪ min(Tf, Tb): several weight halves per window
	f.Add(uint8(3), uint8(8), uint8(16), 1.0, 2.0, 0.05, 1.0, false, uint8(2), uint8(0), uint64(7))       // dapple forwards first under drawn caps
	f.Add(uint8(4), uint8(4), uint8(8), 1.0, 1.0, 0.0, 1.0, false, uint8(0), uint8(0), uint64(3))         // chimera, drawn caps per direction, ties
	f.Add(uint8(2), uint8(4), uint8(8), 1.0, 2.0, 0.05, 1.0, false, uint8(0), uint8(1), uint64(5))        // gpipe without its barrier, drawn caps
	f.Add(uint8(2), uint8(4), uint8(8), 1.0, 2.0, 0.05, 1.0, false, uint8(0), uint8(0), uint64(5))        // gpipe's barrier under drawn caps
	f.Add(uint8(8), uint8(4), uint8(8), 1.0, 2.0, 0.05, 1.0, false, uint8(1), uint8(2), uint64(0))        // hanayo-w4 behind a barrier, backwards first
	f.Fuzz(func(t *testing.T, idx, p, b uint8, tf, tb, tc, tw float64, eagerW bool, prio, barrier uint8, capSeed uint64) {
		scheme := FuzzSchemes[int(idx)%len(FuzzSchemes)]
		P, B := int(p%17), int(b%25)
		own := prio%3 == 0 && barrier%3 == 0 && capSeed == 0
		knobs := func(gp *GenParams) {
			gp.Tf, gp.Tb, gp.Tc, gp.Tw, gp.EagerW = tf, tb, tc, tw, eagerW
			if prio%3 != 0 {
				gp.ForwardFirst = prio%3 == 2
			}
			if barrier%3 != 0 {
				gp.PhaseBarrier = barrier%3 == 2
			}
			if capSeed != 0 {
				rng := tensor.NewRNG(capSeed)
				gp.Cap = make([]int32, gp.Mapping.S*gp.Mapping.ChunksPerDevice())
				for i := range gp.Cap {
					gp.Cap[i] = int32(rng.Intn(gp.Mapping.S+2)) - 1
					if gp.Cap[i] == 0 {
						gp.Cap[i] = 1
					}
				}
			}
		}
		label := fmt.Sprintf("%s P=%d B=%d Tf=%g Tb=%g Tc=%g Tw=%g EagerW=%v prio=%d barrier=%d capSeed=%d",
			scheme, P, B, tf, tb, tc, tw, eagerW, prio%3, barrier%3, capSeed)
		s, err := GenerateWith(NewGenerator(), scheme, P, B, knobs)
		want, refErr := GenerateWith(NewGenerator(), scheme, P, B, knobs, AsReference)
		if err != nil || refErr != nil {
			if err == nil || refErr == nil || err.Error() != refErr.Error() {
				t.Fatalf("%s: error %v, reference path's %v", label, err, refErr)
			}
			sc, _ := ParseScheme(scheme)
			modest := func(v float64) bool { return v < 1e300 } // false for NaN and +Inf
			accepted := P > 0 && B > 0 && sc.CheckB(B) == nil &&
				tf > 0 && tb > 0 && tc >= 0 && modest(tf) && modest(tb) && modest(tc) &&
				(!sc.Split() || (tw > 0 && modest(tw)))
			if own && accepted || strings.Contains(err.Error(), "stalled") {
				t.Fatalf("%s: %v", label, err)
			}
			return
		}
		if err := sim.Validate(s); err != nil {
			t.Fatalf("%s: generated schedule fails sim.Validate: %v", label, err)
		}
		SchedulesEqual(t, label, s, want)
	})
}
