package sched

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/tensor"
)

// TestMain fails the package if any test leaves a goroutine behind: after
// the tests, the goroutine count must return to its baseline within 2 s,
// or every stack is printed and the run fails. A -fuzz run is exempt: the
// fuzzing engine's own signal handler goroutine outlives the tests.
func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	if f := flag.Lookup("test.fuzz"); f != nil && f.Value.String() != "" {
		os.Exit(code)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "leaked goroutines: %d at start, %d after the tests\n%s", baseline, n, buf)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func mustBuild(t *testing.T, f func() (*Schedule, error)) *Schedule {
	t.Helper()
	s, err := f()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestStraightMapping(t *testing.T) {
	m := StraightMapping(4)
	for s := 0; s < 4; s++ {
		if m.Device(0, s) != s || m.Chunk(0, s) != 0 {
			t.Fatalf("stage %d: device %d chunk %d", s, m.Device(0, s), m.Chunk(0, s))
		}
	}
	if m.ChunksPerDevice() != 1 || m.WeightReplicas != 1 {
		t.Fatal("straight must host one chunk, one replica")
	}
}

func TestWaveMappingStructure(t *testing.T) {
	// P=4, W=1: stages 0..3 go down devices 0..3, stages 4..7 come back up.
	m := WaveMapping(4, 1)
	wantDev := []int{0, 1, 2, 3, 3, 2, 1, 0}
	for s, w := range wantDev {
		if m.Device(0, s) != w {
			t.Fatalf("stage %d on device %d, want %d", s, m.Device(0, s), w)
		}
	}
	// Turn points (3→4 and nothing after 7) are local: no device change.
	if m.Device(0, 3) != m.Device(0, 4) {
		t.Fatal("wave turn must stay on the same device")
	}
	if m.ChunksPerDevice() != 2 {
		t.Fatalf("chunks per device = %d, want 2", m.ChunksPerDevice())
	}
}

func TestWaveMappingPropertyEveryDeviceHosts2W(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		p := 2 + r.Intn(7)
		w := 1 + r.Intn(4)
		m := WaveMapping(p, w)
		if m.S != 2*w*p {
			return false
		}
		// Every device hosts exactly 2W chunks and every stage exactly once.
		count := map[int]int{}
		for d := 0; d < p; d++ {
			if len(m.Hosted(d)) != 2*w {
				return false
			}
			for _, h := range m.Hosted(d) {
				count[h.Stage]++
			}
		}
		for s := 0; s < m.S; s++ {
			if count[s] != 1 {
				return false
			}
		}
		// Consecutive stages are on the same or an adjacent device.
		for s := 0; s+1 < m.S; s++ {
			d0, d1 := m.Device(0, s), m.Device(0, s+1)
			if d1-d0 > 1 || d0-d1 > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestChimeraMappingHostsTwoCopies(t *testing.T) {
	m := Scheme{fam: famChimera}.mapping(4)
	// Down micro 0: stage s on device s; up micro 1: stage s on device 3-s.
	for s := 0; s < 4; s++ {
		if m.Device(0, s) != s {
			t.Fatalf("down stage %d on %d", s, m.Device(0, s))
		}
		if m.Device(1, s) != 3-s {
			t.Fatalf("up stage %d on %d", s, m.Device(1, s))
		}
	}
	if m.WeightReplicas != 2 {
		t.Fatal("chimera stores two replicas")
	}
	// Device 0 hosts stage 0 (down) and stage 3 (up).
	h := m.Hosted(0)
	if len(h) != 2 || h[0].Stage != 0 || h[1].Stage != 3 {
		t.Fatalf("hosted %v", h)
	}
}

func TestInterleavedMapping(t *testing.T) {
	m := Scheme{fam: famInterleaved, arg: 2}.mapping(4)
	if m.S != 8 {
		t.Fatalf("S = %d", m.S)
	}
	if m.Device(0, 5) != 1 || m.Chunk(0, 5) != 1 {
		t.Fatalf("stage 5: dev %d chunk %d", m.Device(0, 5), m.Chunk(0, 5))
	}
}

func TestComputeCountsPerScheme(t *testing.T) {
	// Every scheme runs exactly B*S forwards and B*S backwards.
	for _, tc := range []struct {
		s    *Schedule
		want int
	}{
		{mustBuild(t, func() (*Schedule, error) { return GPipe(4, 6) }), 24},
		{mustBuild(t, func() (*Schedule, error) { return Hanayo(4, 2, 4) }), 64},
		{mustBuild(t, func() (*Schedule, error) { return Chimera(4, 4) }), 16},
	} {
		if n := tc.s.CountKind(OpForward); n != tc.want {
			t.Fatalf("%s forwards %d want %d", tc.s.Scheme, n, tc.want)
		}
		if n := tc.s.CountKind(OpBackward); n != tc.want {
			t.Fatalf("%s backwards %d want %d", tc.s.Scheme, n, tc.want)
		}
	}
}

func TestSendRecvPaired(t *testing.T) {
	s := mustBuild(t, func() (*Schedule, error) { return Hanayo(4, 2, 4) })
	if sa, ra := s.CountKind(OpSendAct), s.CountKind(OpRecvAct); sa != ra {
		t.Fatalf("sends %d recvs %d", sa, ra)
	}
	if sg, rg := s.CountKind(OpSendGrad), s.CountKind(OpRecvGrad); sg != rg {
		t.Fatalf("grad sends %d recvs %d", sg, rg)
	}
}

// TestWaveTurnHasNoComm verifies the paper's core claim about the swap
// construction: the boundary between stage P−1 and P (the turn) is local,
// so a 1-wave pipeline has fewer transfers than two chained straight pipes.
func TestWaveTurnHasNoComm(t *testing.T) {
	s := mustBuild(t, func() (*Schedule, error) { return Hanayo(4, 1, 4) })
	for _, list := range s.Lists {
		for _, a := range list {
			if a.Kind == OpSendAct && a.Stage == 4 {
				t.Fatalf("turn boundary 3→4 must not communicate: %v", a)
			}
		}
	}
	// Per micro: S-1 = 7 boundaries, of which 3→4 and 7→end(none) local:
	// forward sends = 6 per micro.
	if got, want := s.CountKind(OpSendAct), 6*4; got != want {
		t.Fatalf("forward sends %d want %d", got, want)
	}
}

func TestGPipePhaseOrder(t *testing.T) {
	s := mustBuild(t, func() (*Schedule, error) { return GPipe(4, 4) })
	for d, list := range s.Lists {
		seenBack := false
		for _, a := range list {
			if a.Kind == OpBackward {
				seenBack = true
			}
			if a.Kind == OpForward && seenBack {
				t.Fatalf("device %d runs a forward after a backward (not GPipe)", d)
			}
		}
	}
}

// TestDAPPLEInflightCap replays the schedule and checks that the live
// activation count per stage never exceeds P−s (the 1F1B memory bound).
func TestDAPPLEInflightCap(t *testing.T) {
	p, b := 4, 8
	s := mustBuild(t, func() (*Schedule, error) { return DAPPLE(p, b) })
	inflight := map[int]int{}
	peak := map[int]int{}
	// Device-serial replay in validated global order: use a simple merge —
	// replay each device independently; per stage all Fs and Bs are on one
	// device, so per-device order is enough for this bound.
	for _, list := range s.Lists {
		for _, a := range list {
			switch a.Kind {
			case OpForward:
				inflight[int(a.Stage)]++
				if inflight[int(a.Stage)] > peak[int(a.Stage)] {
					peak[int(a.Stage)] = inflight[int(a.Stage)]
				}
			case OpBackward:
				inflight[int(a.Stage)]--
			}
		}
	}
	for st := 0; st < p; st++ {
		if peak[st] > p-st {
			t.Fatalf("stage %d peak inflight %d exceeds cap %d", st, peak[st], p-st)
		}
	}
}

func TestChimeraRequiresEvenB(t *testing.T) {
	if _, err := Chimera(4, 3); err == nil {
		t.Fatal("expected error for odd B")
	}
}

func TestValidateCatchesCorruption(t *testing.T) {
	s := mustBuild(t, func() (*Schedule, error) { return DAPPLE(4, 4) })
	// Drop a backward from device 2's list.
	broken := s.Clone()
	for i, a := range broken.Lists[2] {
		if a.Kind == OpBackward {
			broken.Lists[2] = append(broken.Lists[2][:i:i], broken.Lists[2][i+1:]...)
			break
		}
	}
	if Validate(broken) == nil {
		t.Fatal("validator missed a dropped backward")
	}

	// Swap a recv before the send it depends on cannot happen per-device;
	// instead corrupt a peer id.
	broken2 := s.Clone()
	for d, list := range broken2.Lists {
		for i, a := range list {
			if a.Kind == OpRecvAct {
				a.Peer = (a.Peer + 1) % 4
				if int(a.Peer) == d {
					a.Peer = (a.Peer + 1) % 4
				}
				broken2.Lists[d][i] = a
				if Validate(broken2) == nil {
					t.Fatal("validator missed a corrupted peer")
				}
				return
			}
		}
	}
}

func TestValidateCatchesMissingFlush(t *testing.T) {
	s := mustBuild(t, func() (*Schedule, error) { return GPipe(2, 2) })
	s.Lists[0] = s.Lists[0][:len(s.Lists[0])-1]
	if Validate(s) == nil {
		t.Fatal("validator missed missing OptimStep")
	}
}

func TestActionString(t *testing.T) {
	a := Action{Kind: OpForward, Micro: 2, Stage: 5, Chunk: 1, Peer: -1}
	if a.String() != "F m2 s5 c1" {
		t.Fatalf("got %q", a.String())
	}
	c := Action{Kind: OpSendAct, Micro: 0, Stage: 3, Peer: 2}
	if c.String() != "SA m0 s3 p2" {
		t.Fatalf("got %q", c.String())
	}
}

func TestScheduleCloneIndependent(t *testing.T) {
	s := mustBuild(t, func() (*Schedule, error) { return DAPPLE(2, 2) })
	c := s.Clone()
	c.Lists[0][0].Micro = 99
	if s.Lists[0][0].Micro == 99 {
		t.Fatal("clone must not share list storage")
	}
}
