package sched

import (
	"strings"
	"testing"
)

// TestValidateCommunicationRule: a comm op sits on its payload's own link,
// and a payload is sent at most once, received at most once and never
// sent without being received. An extra transfer between the wrong pair of
// devices is refused even when a matching receive consumes it, and so is a
// payload moved twice. A receive whose send is missing passes: the lists'
// walk stalls on it.
func TestValidateCommunicationRule(t *testing.T) {
	s, err := DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	// Micro 0's activation into stage 1 moves from device 0 to device 1.
	send := Action{Kind: OpSendAct, Micro: 0, Stage: 1, Peer: 1}
	recv := Action{Kind: OpRecvAct, Micro: 0, Stage: 1, Peer: 0}
	prepend := func(lists map[int][]Action) *Schedule {
		c := s.Clone()
		for d, ops := range lists {
			c.Lists[d] = append(append([]Action(nil), ops...), c.Lists[d]...)
		}
		return c
	}
	dropFirst := func(c *Schedule, d int, k OpKind) *Schedule {
		for i, a := range c.Lists[d] {
			if a.Kind == k {
				c.Lists[d] = append(c.Lists[d][:i:i], c.Lists[d][i+1:]...)
				break
			}
		}
		return c
	}
	for _, c := range []struct {
		name string
		s    *Schedule
		want string // "" for accepted
	}{
		{"paired transfer off the link", prepend(map[int][]Action{
			3: {{Kind: OpSendAct, Micro: 0, Stage: 1, Peer: 0}},
			0: {{Kind: OpRecvAct, Micro: 0, Stage: 1, Peer: 3}},
		}), "RA m0 s1 p3 is off its payload's link 0→1"},
		{"activation into stage 0", prepend(map[int][]Action{
			1: {{Kind: OpSendAct, Micro: 0, Stage: 0, Peer: 0}},
		}), "carries no payload"},
		{"sent and received twice", prepend(map[int][]Action{0: {send}, 1: {recv}}), "2 sends, 2 receives"},
		{"sent twice", prepend(map[int][]Action{0: {send}}), "2 sends, 1 receives"},
		{"received twice", prepend(map[int][]Action{1: {recv}}), "1 sends, 2 receives"},
		{"sent, never received", dropFirst(s.Clone(), 1, OpRecvAct), "1 sends, 0 receives"},
		{"received, never sent", dropFirst(s.Clone(), 0, OpSendAct), ""},
	} {
		err := Validate(c.s)
		if c.want == "" && err != nil || c.want != "" && (err == nil || !strings.Contains(err.Error(), c.want)) {
			t.Errorf("%s: got %v, want %q", c.name, err, c.want)
		}
	}
}

// TestValidateAllocsReused pins the check's allocation budget: with a
// warmed arena, the structural pass allocates nothing (the standalone
// Validate pays only its own arena growth).
func TestValidateAllocsReused(t *testing.T) {
	s, err := Hanayo(8, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	var v validator
	if err := v.validate(s); err != nil { // warm the arena
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
