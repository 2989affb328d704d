package cluster

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestWithoutDevice(t *testing.T) {
	c := TACC(8)
	d := c.WithoutDevice(3)
	if d.N() != 7 {
		t.Fatalf("N = %d, want 7", d.N())
	}
	// Surviving devices keep their specs and their pairwise links: every
	// (i,j) of the derived cluster equals the original (keep[i], keep[j]).
	keep := []int{0, 1, 2, 4, 5, 6, 7}
	for i := 0; i < 7; i++ {
		if d.Devices[i] != c.Devices[keep[i]] {
			t.Fatalf("device %d: %+v != original device %d", i, d.Devices[i], keep[i])
		}
		for j := 0; j < 7; j++ {
			if bandwidth(d, i, j) != bandwidth(c, keep[i], keep[j]) ||
				latency(d, i, j) != latency(c, keep[i], keep[j]) {
				t.Fatalf("link (%d,%d) differs from original (%d,%d)", i, j, keep[i], keep[j])
			}
		}
	}
	if c.N() != 8 {
		t.Fatal("receiver modified")
	}
	if c.Fingerprint() == d.Fingerprint() {
		t.Fatal("removal must change the fingerprint")
	}
}

func TestWithoutDeviceKeepsPerturbations(t *testing.T) {
	c := TACC(8).WithStraggler(5, 0.5).WithLinkDegrade(4, 5, 0.25)
	d := c.WithoutDevice(0)
	// Old devices 4,5 are now 3,4.
	if got := d.SpeedOf(4); got != 0.5 {
		t.Fatalf("straggler speed lost: %g", got)
	}
	if got := d.LinkFactor(3, 4); got != 0.25 {
		t.Fatalf("link factor lost: %g", got)
	}
	if got := d.LinkFactor(0, 1); got != 1.0 {
		t.Fatalf("healthy link degraded: %g", got)
	}
}

func TestWithDeviceLike(t *testing.T) {
	c := TACC(6) // nodes of 3: {0,1,2}, {3,4,5}
	d := c.WithDeviceLike(4)
	if d.N() != 7 {
		t.Fatalf("N = %d, want 7", d.N())
	}
	g := d.Devices[6]
	if g.Name != c.Devices[4].Name || g.NodeID != c.Devices[4].NodeID || g.Speed != 0 {
		t.Fatalf("joined device %+v is not a healthy clone of device 4", g)
	}
	// The newcomer carries device 4's link row …
	for j := 0; j < 6; j++ {
		if j == 4 {
			continue
		}
		if bandwidth(d, 6, j) != bandwidth(c, 4, j) || bandwidth(d, j, 6) != bandwidth(c, 4, j) {
			t.Fatalf("link (6,%d) = %g, want device 4's %g", j, bandwidth(d, 6, j), bandwidth(c, 4, j))
		}
	}
	// … and reaches its template over the template's strongest peer link
	// (intra-node PCIe here, not cross-node InfiniBand).
	if bandwidth(d, 6, 4) != pcieBW || latency(d, 6, 4) != pcieLat {
		t.Fatalf("template link %g GB/s, want strongest peer link %g", bandwidth(d, 6, 4), pcieBW)
	}
	if c.Fingerprint() == d.Fingerprint() {
		t.Fatal("join must change the fingerprint")
	}
}

func TestWithDeviceLikeJoinsHealthy(t *testing.T) {
	c := TACC(4).WithStraggler(1, 0.25)
	d := c.WithDeviceLike(1)
	if got := d.SpeedOf(4); got != 1.0 {
		t.Fatalf("replacement inherits straggler speed %g, want 1.0", got)
	}
	if got := d.SpeedOf(1); got != 0.25 {
		t.Fatalf("template speed changed: %g", got)
	}
}

func TestApplyEvents(t *testing.T) {
	c := FullNVLink(4)
	evs := []Event{
		{Kind: SpeedChange, Dev: 0, Factor: 0.5},
		{Kind: DeviceLeave, Dev: 3},
		{Kind: DeviceJoin, Dev: 0},
		{Kind: LinkChange, Dev: 0, Peer: 1, Factor: 0.25},
	}
	states, err := ApplyEvents(c, evs)
	if err != nil {
		t.Fatal(err)
	}
	if len(states) != 4 {
		t.Fatalf("%d states, want 4", len(states))
	}
	final := states[3]
	if final.N() != 4 {
		t.Fatalf("final N = %d, want 4", final.N())
	}
	if final.SpeedOf(0) != 0.5 || final.LinkFactor(0, 1) != 0.25 {
		t.Fatal("perturbations did not survive the fold")
	}
	// Every state in the sequence is distinct — the fingerprint chain is
	// what keeps cache entries from aliasing across membership steps.
	fps := map[uint64]bool{c.Fingerprint(): true}
	for _, s := range states {
		if fps[s.Fingerprint()] {
			t.Fatalf("duplicate fingerprint in event sequence (%s)", s.Name)
		}
		fps[s.Fingerprint()] = true
	}
}

func TestApplyRejects(t *testing.T) {
	c := FullNVLink(2)
	bad := []Event{
		{Kind: DeviceLeave, Dev: 5},
		{Kind: DeviceLeave, Dev: -1},
		{Kind: DeviceJoin, Dev: 2},
		{Kind: SpeedChange, Dev: 0, Factor: 0},
		{Kind: SpeedChange, Dev: 0, Factor: math.Inf(1)},
		{Kind: LinkChange, Dev: 0, Peer: 0, Factor: 0.5},
		{Kind: LinkChange, Dev: 0, Peer: 7, Factor: 0.5},
		{Kind: EventKind(99), Dev: 0},
	}
	for _, ev := range bad {
		if _, err := c.Apply(ev); err == nil {
			t.Fatalf("Apply(%+v) accepted", ev)
		}
	}
	one := FullNVLink(2).WithoutDevice(0)
	if _, err := one.Apply(Event{Kind: DeviceLeave, Dev: 0}); err == nil {
		t.Fatal("removing the last device accepted")
	}
	if _, err := one.Apply(Event{Kind: DeviceJoin, Dev: 0}); err == nil {
		t.Fatal("joining a peerless cluster accepted")
	}
}

func TestParseEvents(t *testing.T) {
	evs, err := ParseEvents([]byte(`{"events": [
		{"kind": "leave", "dev": 2},
		{"kind": "join", "dev": 0},
		{"kind": "speed", "dev": 1, "factor": 0.5},
		{"kind": "link", "dev": 0, "peer": 1, "factor": 0.25}]}`))
	if err != nil {
		t.Fatal(err)
	}
	want := []Event{
		{Kind: DeviceLeave, Dev: 2},
		{Kind: DeviceJoin, Dev: 0},
		{Kind: SpeedChange, Dev: 1, Factor: 0.5},
		{Kind: LinkChange, Dev: 0, Peer: 1, Factor: 0.25},
	}
	if len(evs) != len(want) {
		t.Fatalf("%d events, want %d", len(evs), len(want))
	}
	for i := range want {
		if evs[i] != want[i] {
			t.Fatalf("event %d = %+v, want %+v", i, evs[i], want[i])
		}
	}
}

func TestParseEventsRejects(t *testing.T) {
	cases := []string{
		`{"events": [{"kind": "explode", "dev": 0}]}`, // unknown kind
		`{"events": [{"kind": "leave", "dev": -1}]}`,  // negative device
		`{"events": [{"kind": "speed", "dev": 0}]}`,   // missing factor
		`{"events": [{"kind": "speed", "dev": 0, "factor": -2}]}`,
		`{"events": [{"kind": "link", "dev": 0, "peer": 0, "factor": 0.5}]}`,
		`{"events": [{"kind": "leave", "dev": 0, "when": 3}]}`, // unknown field
		`{"events": [`, // malformed JSON
	}
	for _, src := range cases {
		if _, err := ParseEvents([]byte(src)); err == nil {
			t.Fatalf("ParseEvents(%s) accepted", src)
		}
	}
}

func TestEventJSONRoundTrip(t *testing.T) {
	f := func(seed uint64) bool {
		kinds := []EventKind{DeviceLeave, DeviceJoin, SpeedChange, LinkChange}
		ev := Event{Kind: kinds[seed%4], Dev: int(seed>>2) % 16}
		switch ev.Kind {
		case SpeedChange:
			ev.Factor = 0.1 + float64((seed>>8)%20)/10
		case LinkChange:
			ev.Peer = ev.Dev + 1
			ev.Factor = 0.1 + float64((seed>>8)%9)/10
		}
		// Marshal via eventStream so the file format round-trips whole.
		raw, err := json.Marshal(eventStream{Events: []Event{ev}})
		if err != nil {
			return false
		}
		back, err := ParseEvents(raw)
		return err == nil && len(back) == 1 && back[0] == ev
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestApplyStragglerMulti(t *testing.T) {
	c := FullNVLink(4)
	d, err := ApplyStraggler(c, "0:0.5,3:0.8")
	if err != nil {
		t.Fatal(err)
	}
	if d.SpeedOf(0) != 0.5 || d.SpeedOf(3) != 0.8 {
		t.Fatalf("speeds %g/%g, want 0.5/0.8", d.SpeedOf(0), d.SpeedOf(3))
	}
	if _, err := ApplyStraggler(c, "0:0.5,1:0.9,0:0.8"); err == nil {
		t.Fatal("duplicate device accepted")
	} else if !strings.Contains(err.Error(), "device 0 twice") {
		t.Fatalf("duplicate error does not name the device: %v", err)
	}
	// Single-entry specs keep their original semantics.
	d, err = ApplyStraggler(c, "2:0.25")
	if err != nil || d.SpeedOf(2) != 0.25 {
		t.Fatalf("single entry broke: %v, speed %g", err, d.SpeedOf(2))
	}
}
