package sim

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/tensor"
)

// Mutation classes of edit.
const (
	editSwap   = iota // swap an op with one of the next three on its list
	editDelete        // delete an op
	editDup           // duplicate an op in place
	editPeer          // point a comm op at another peer
	editMove          // move an op to another device's list
	editClasses
)

// edit applies one mutation of the given class to s in place: d picks the
// device, i the op (for editPeer, the comm op) on its list, and x the
// class's argument — the swap distance, the new peer or the target device.
// Any values are accepted; they are reduced to the schedule's shape.
func edit(s *sched.Schedule, class, d, i, x int) {
	d %= s.P
	list := s.Lists[d]
	if len(list) == 0 {
		return
	}
	i %= len(list)
	other := (d + 1 + x%(s.P-1)) % s.P // a device other than d
	switch class % editClasses {
	case editSwap:
		j := min(i+1+x%3, len(list)-1)
		list[i], list[j] = list[j], list[i]
	case editDelete:
		s.Lists[d] = slices.Delete(list, i, i+1)
	case editDup:
		s.Lists[d] = slices.Insert(list, i, list[i])
	case editPeer:
		comm := 0
		for _, a := range list {
			if a.Kind.IsComm() {
				comm++
			}
		}
		if comm == 0 {
			return
		}
		k := i % comm
		for j, a := range list {
			if a.Kind.IsComm() {
				if k == 0 {
					list[j].Peer = int32((int(a.Peer) + 1 + x%(s.P-1)) % s.P)
					return
				}
				k--
			}
		}
	case editMove:
		a := list[i]
		s.Lists[d] = slices.Delete(list, i, i+1)
		to := s.Lists[other]
		s.Lists[other] = slices.Insert(to, i%(len(to)+1), a)
	}
}

// mutate applies one seeded mutation to s: 1–3 near swaps, a deleted op, a
// duplicated op, a changed peer or an op moved to another list.
func mutate(s *sched.Schedule, r *tensor.RNG) {
	class := r.Intn(editClasses)
	n := 1
	if class == editSwap {
		n += r.Intn(3)
	}
	for range n {
		edit(s, class, r.Intn(s.P), r.Intn(1<<16), r.Intn(1<<16))
	}
}

// TestValidateVerdictsPinned pins the accept/reject verdict of the schedule
// check on 36 000 mutated schedules: 10 schemes × P ∈ {2, 4, 8} × B ∈ {2,
// 4, 8} × 400 seeded mutations each. Only the verdicts are hashed — the
// error a refusal names may change with the check's implementation, what
// it accepts may not.
func TestValidateVerdictsPinned(t *testing.T) {
	const (
		perShape = 400
		want     = uint64(0x2812e2d9de6bcff4)
	)
	r := tensor.NewRNG(50)
	g := sched.NewGenerator()
	h := fnv.New64a()
	total, accepted := 0, 0
	for _, scheme := range allSchemes {
		for _, p := range []int{2, 4, 8} {
			for _, b := range []int{2, 4, 8} {
				gen, err := g.Generate(scheme, p, b)
				if err != nil {
					t.Fatalf("%s P=%d B=%d: %v", scheme, p, b, err)
				}
				base := gen.Clone()
				for range perShape {
					s := base.Clone()
					mutate(s, r)
					verdict := byte(0)
					if Validate(s) == nil {
						verdict = 1
						accepted++
					}
					h.Write([]byte{verdict})
					total++
				}
			}
		}
	}
	got := h.Sum64()
	t.Logf("%d of %d mutated schedules accepted, verdict digest %#x", accepted, total, got)
	if got != want {
		t.Fatalf("verdict digest %#x, want %#x", got, want)
	}
}

// TestComputeBeforeInputFails: a compute op reached before its input is an
// error naming the device and the op, one case per refused class — a
// forward ahead of the receive that brings its activation or of the local
// forward that produces it, a backward ahead of its own forward or of the
// receive that brings its gradient, and a weight-grad half ahead of its
// input-grad half.
func TestComputeBeforeInputFails(t *testing.T) {
	same := func(x, a sched.Action, k sched.OpKind, stage int32) bool {
		return a.Kind == k && a.Micro == x.Micro && a.Stage == stage
	}
	for _, c := range []struct {
		name, scheme string
		kind         sched.OpKind
		// input reports whether a is the op on x's list that x waits for.
		input func(x, a sched.Action) bool
		want  string
	}{
		{"forward ahead of its receive", "dapple", sched.OpForward,
			func(x, a sched.Action) bool { return same(x, a, sched.OpRecvAct, x.Stage) },
			"before its input activation arrives"},
		{"forward ahead of its local producer", "hanayo-w1", sched.OpForward,
			func(x, a sched.Action) bool { return same(x, a, sched.OpForward, x.Stage-1) },
			"before its input activation arrives"},
		{"backward ahead of its forward", "dapple", sched.OpBackward,
			func(x, a sched.Action) bool { return same(x, a, sched.OpForward, x.Stage) },
			"before its forward"},
		{"backward ahead of its gradient's receive", "dapple", sched.OpBackward,
			func(x, a sched.Action) bool { return same(x, a, sched.OpRecvGrad, x.Stage) },
			"before its input gradient arrives"},
		{"weight-grad ahead of its input-grad", "zbh1", sched.OpBackwardWeight,
			func(x, a sched.Action) bool { return same(x, a, sched.OpBackwardInput, x.Stage) },
			"before its input-grad half"},
	} {
		s, err := sched.NewGenerator().Generate(c.scheme, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		d, x := hoist(s, c.kind, c.input)
		if d < 0 {
			t.Fatalf("%s: no %v with its input on the same list", c.name, c.kind)
		}
		want := fmt.Sprintf("device %d runs %v %s", d, x, c.want)
		for _, opt := range []Options{DefaultOptions(), {Prefetch: true}} {
			if _, err := NewRunner().Run(s, uniformFor(s, 0.1), opt); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s (batch=%v): got %v, want %q", c.name, opt.BatchComm, err, want)
			}
		}
		if err := Validate(s); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: Validate: got %v, want %q", c.name, err, want)
		}
	}
}

// hoist moves the first op of kind k that finds its input earlier on its
// own list to just ahead of that input, returning the device and the op
// (-1 if there is none).
func hoist(s *sched.Schedule, k sched.OpKind, input func(x, a sched.Action) bool) (int, sched.Action) {
	for d, list := range s.Lists {
		for j, x := range list {
			if x.Kind != k {
				continue
			}
			for i, a := range list[:j] {
				if input(x, a) {
					copy(list[i+1:j+1], list[i:j])
					list[i] = x
					return d, x
				}
			}
		}
	}
	return -1, sched.Action{}
}

// FuzzValidate mutates a generated schedule by a few edits (edit's classes,
// five bytes each: class, device, op index high and low byte, argument)
// and holds two properties: Validate never panics on a schedule whose
// structure sched.Validate accepts, and whatever Validate accepts the
// default batched simulation completes.
func FuzzValidate(f *testing.F) {
	f.Add(uint8(1), uint8(2), uint8(1), []byte{editSwap, 1, 0, 0, 0}) // dapple P4 B4: device 1's first forward ahead of its receive
	f.Add(uint8(2), uint8(2), uint8(1), []byte{editSwap, 0, 0, 3, 0}) // chimera P4 B4: device 0's SA m2 s1 ↔ RA m1 s3
	f.Add(uint8(6), uint8(6), uint8(3), []byte{editMove, 3, 1, 7, 2, editPeer, 0, 0, 9, 1})
	f.Fuzz(func(t *testing.T, idx, p, b uint8, edits []byte) {
		scheme := allSchemes[int(idx)%len(allSchemes)]
		P, B := 2+int(p%7), 2*(1+int(b%4))
		s, err := sched.NewGenerator().Generate(scheme, P, B)
		if err != nil {
			t.Fatalf("%s P=%d B=%d: %v", scheme, P, B, err)
		}
		for k := 0; k+5 <= len(edits) && k < 8*5; k += 5 {
			e := edits[k : k+5]
			edit(s, int(e[0]), int(e[1]), int(e[2])<<8|int(e[3]), int(e[4]))
		}
		if sched.Validate(s) != nil {
			return
		}
		if Validate(s) != nil {
			return
		}
		if _, err := Run(s, uniformFor(s, 0.1), DefaultOptions()); err != nil {
			t.Fatalf("%s P=%d B=%d: Validate accepts what the batched simulation refuses: %v", scheme, P, B, err)
		}
	})
}
