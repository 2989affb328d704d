package sim

import (
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/sched"
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

// uniformFor returns per-stage costs normalized so that one device's full
// model slice costs Tf=1/Tb=2 regardless of how many chunks it hosts —
// this is what makes bubble ratios comparable across schemes.
func uniformFor(s *sched.Schedule, tc float64) costmodel.Uniform {
	perDevice := float64(s.S) / float64(s.P) // stages hosted per device
	return costmodel.Uniform{Tf: 1 / perDevice, Tb: 2 / perDevice, Tc: tc}
}

func run(t *testing.T, s *sched.Schedule, cost Cost, opt Options) *Result {
	t.Helper()
	r, err := Run(s, cost, opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestGPipeClosedFormMakespan(t *testing.T) {
	// GPipe with uniform tf=1, tb=2, tc=0: makespan = (B+P-1)(tf+tb).
	s, err := sched.GPipe(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := run(t, s, costmodel.Uniform{Tf: 1, Tb: 2}, DefaultOptions())
	if math.Abs(r.Makespan-21) > 1e-9 {
		t.Fatalf("makespan %g want 21", r.Makespan)
	}
	want := 3.0 / 7.0
	if math.Abs(r.BubbleRatio()-want) > 1e-9 {
		t.Fatalf("bubble %g want %g", r.BubbleRatio(), want)
	}
}

func TestDAPPLEClosedFormMakespan(t *testing.T) {
	// 1F1B has the same makespan as GPipe under zero comm cost.
	s, err := sched.DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := run(t, s, costmodel.Uniform{Tf: 1, Tb: 2}, DefaultOptions())
	if math.Abs(r.Makespan-21) > 1e-6 {
		t.Fatalf("makespan %g want 21", r.Makespan)
	}
}

func TestBusyTimeIsWorkConserving(t *testing.T) {
	// Every device must compute exactly B × (its stage share) × (tf+tb).
	for _, build := range []func() (*sched.Schedule, error){
		func() (*sched.Schedule, error) { return sched.GPipe(4, 6) },
		func() (*sched.Schedule, error) { return sched.DAPPLE(4, 6) },
		func() (*sched.Schedule, error) { return sched.Hanayo(4, 2, 6) },
		func() (*sched.Schedule, error) { return sched.Chimera(4, 6) },
	} {
		s, err := build()
		if err != nil {
			t.Fatal(err)
		}
		cost := uniformFor(s, 0)
		r := run(t, s, cost, DefaultOptions())
		for d, b := range r.Busy {
			want := float64(s.B) * 3 // normalized full slice per micro
			if math.Abs(b-want) > 1e-6 {
				t.Fatalf("%s device %d busy %g want %g", s.Scheme, d, b, want)
			}
		}
	}
}

func TestMoreWavesLowerBubble(t *testing.T) {
	// The paper's headline property (§3.3): with Tc = 0 the bubble ratio
	// strictly drops as waves increase.
	prev := math.Inf(1)
	for _, w := range []int{1, 2, 4} {
		s, err := sched.Hanayo(8, w, 8)
		if err != nil {
			t.Fatal(err)
		}
		r := run(t, s, uniformFor(s, 0), DefaultOptions())
		br := r.BubbleRatio()
		if br >= prev {
			t.Fatalf("wave %d bubble %g not below previous %g", w, br, prev)
		}
		prev = br
	}
}

func TestHanayoBeatsDAPPLE(t *testing.T) {
	d, err := sched.DAPPLE(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sched.Hanayo(8, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	rd := run(t, d, uniformFor(d, 0), DefaultOptions())
	rh := run(t, h, uniformFor(h, 0), DefaultOptions())
	if rh.Makespan >= rd.Makespan {
		t.Fatalf("hanayo %g not faster than dapple %g", rh.Makespan, rd.Makespan)
	}
}

func TestMakespanLowerBound(t *testing.T) {
	// Makespan can never beat one device's serial work.
	s, err := sched.Hanayo(4, 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := run(t, s, uniformFor(s, 0.01), DefaultOptions())
	if r.Makespan < float64(s.B)*3 {
		t.Fatalf("makespan %g below serial bound %g", r.Makespan, float64(s.B)*3)
	}
}

func TestPeakActivationsGPipeVsDAPPLE(t *testing.T) {
	g, err := sched.GPipe(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	d, err := sched.DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	rg := run(t, g, costmodel.Uniform{Tf: 1, Tb: 2}, DefaultOptions())
	rd := run(t, d, costmodel.Uniform{Tf: 1, Tb: 2}, DefaultOptions())
	// GPipe stores all B activations on every device.
	for dev, peak := range rg.PeakActs {
		if peak != 4 {
			t.Fatalf("gpipe device %d peak %d want 4", dev, peak)
		}
	}
	// 1F1B's last device holds one activation at a time.
	if rd.PeakActs[3] != 1 {
		t.Fatalf("dapple last device peak %d want 1", rd.PeakActs[3])
	}
	if rd.PeakActs[0] > 4 {
		t.Fatalf("dapple first device peak %d exceeds B", rd.PeakActs[0])
	}
}

func TestZonesAccountForAllIdle(t *testing.T) {
	s, err := sched.Hanayo(4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := run(t, s, uniformFor(s, 0.05), DefaultOptions())
	var zones float64
	for _, v := range r.Zones {
		zones += v
	}
	if math.Abs(zones-r.TotalIdle()) > 1e-6 {
		t.Fatalf("zones sum %g != total idle %g", zones, r.TotalIdle())
	}
}

func TestCommCostIncreasesMakespan(t *testing.T) {
	s, err := sched.Hanayo(4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	r0 := run(t, s, uniformFor(s, 0), DefaultOptions())
	r1 := run(t, s, uniformFor(s, 0.2), DefaultOptions())
	if r1.Makespan <= r0.Makespan {
		t.Fatalf("comm cost did not increase makespan: %g vs %g", r1.Makespan, r0.Makespan)
	}
}

func TestPrefetchHelps(t *testing.T) {
	s, err := sched.Hanayo(8, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	with := run(t, s, uniformFor(s, 0.1), Options{Prefetch: true, BatchComm: true})
	without := run(t, s, uniformFor(s, 0.1), Options{Prefetch: false, BatchComm: true})
	if without.Makespan < with.Makespan-1e-9 {
		t.Fatalf("no-prefetch faster (%g) than prefetch (%g)?", without.Makespan, with.Makespan)
	}
}

func TestUnbatchedCommIsNoFasterOrDeadlocks(t *testing.T) {
	s, err := sched.Hanayo(4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	batched := run(t, s, uniformFor(s, 0.1), DefaultOptions())
	r, err := Run(s, uniformFor(s, 0.1), Options{Prefetch: false, BatchComm: false})
	if err != nil {
		return // deadlock is the expected NCCL hazard
	}
	if r.Makespan < batched.Makespan-1e-9 {
		t.Fatalf("unbatched (%g) beat batched (%g)", r.Makespan, batched.Makespan)
	}
}

func TestFlushTimeCharged(t *testing.T) {
	s, err := sched.DAPPLE(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	r0 := run(t, s, costmodel.Uniform{Tf: 1, Tb: 2}, Options{Prefetch: true, BatchComm: true})
	r1 := run(t, s, costmodel.Uniform{Tf: 1, Tb: 2}, Options{Prefetch: true, BatchComm: true, FlushTime: 5})
	if math.Abs((r1.Makespan-r0.Makespan)-5) > 1e-9 {
		t.Fatalf("flush time not charged: %g vs %g", r1.Makespan, r0.Makespan)
	}
}

func TestRecordsCoverAllCompute(t *testing.T) {
	s, err := sched.Chimera(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	r := run(t, s, uniformFor(s, 0.02), DefaultOptions())
	n := 0
	for d, recs := range r.Records() {
		lastEnd := 0.0
		for _, rec := range recs {
			if !rec.Action.Kind.IsCompute() {
				t.Fatal("records must be compute ops")
			}
			if rec.Start < lastEnd-1e-12 {
				t.Fatalf("device %d overlapping compute records", d)
			}
			lastEnd = rec.End
			n++
		}
	}
	if n != 2*s.B*s.S {
		t.Fatalf("records %d want %d", n, 2*s.B*s.S)
	}
}

func TestAsyncBeatsSyncSteadyState(t *testing.T) {
	// Fig 4: removing the flush packs iterations together. Compare per-
	// iteration time of a 3-iteration async block to 3 sync iterations.
	p, b := 4, 4
	syncS, err := sched.DAPPLE(p, b)
	if err != nil {
		t.Fatal(err)
	}
	asyncS, err := sched.AsyncOneFOneB(p, b, 3)
	if err != nil {
		t.Fatal(err)
	}
	cost := costmodel.Uniform{Tf: 1, Tb: 2}
	sync := run(t, syncS, cost, DefaultOptions())
	async := run(t, asyncS, cost, DefaultOptions())
	if async.Makespan/3 >= sync.Makespan {
		t.Fatalf("async per-iter %g not below sync %g", async.Makespan/3, sync.Makespan)
	}
}

func TestThroughput(t *testing.T) {
	r := &Result{Makespan: 2, Busy: []float64{1}}
	if Throughput(r, 8) != 4 {
		t.Fatalf("throughput %g", Throughput(r, 8))
	}
}

// TestChimeraWaveAtLeastAsGoodAsChimera reproduces Fig 5's claim: a P-stage
// Chimera pipeline can be transformed into two one-wave pipelines on P/2
// devices each (the replicas become data parallelism) with no extra
// overhead. Stage granularity is identical on both sides (model cut into P
// stages), each transformed pipeline takes half the micro-batches, and the
// transform must be at least as fast because the swap only removes
// communication.
func TestChimeraWaveAtLeastAsGoodAsChimera(t *testing.T) {
	p, b := 4, 4
	ch, err := sched.Chimera(p, b)
	if err != nil {
		t.Fatal(err)
	}
	cw, err := sched.Hanayo(p/2, 1, b/2) // one of the two DP replicas
	if err != nil {
		t.Fatal(err)
	}
	// Same physical stage size on both sides: model/P per stage.
	cost := costmodel.Uniform{Tf: 1, Tb: 2, Tc: 0.1}
	rch := run(t, ch, cost, DefaultOptions())
	rcw := run(t, cw, cost, DefaultOptions())
	if rcw.Makespan > rch.Makespan*1.02 {
		t.Fatalf("chimera-wave %g slower than chimera %g", rcw.Makespan, rch.Makespan)
	}
	// Per-device work is identical by construction.
	if math.Abs(rcw.Busy[0]-rch.Busy[0]) > 1e-9 {
		t.Fatalf("per-device work differs: %g vs %g", rcw.Busy[0], rch.Busy[0])
	}
}

// TestSendBeforeProducerFails: every send follows the compute op that
// produces its payload, so a compiled schedule with one activation send
// moved ahead of its forward — or one gradient send ahead of its
// backward — fails the run with an error naming the device and the send.
// Unbatched, the Drain path checks the same.
func TestSendBeforeProducerFails(t *testing.T) {
	for _, c := range []struct {
		scheme string
		kind   sched.OpKind
		opt    Options
	}{
		{"hanayo-w2", sched.OpSendAct, DefaultOptions()},
		{"hanayo-w2", sched.OpSendGrad, DefaultOptions()},
		{"gpipe", sched.OpSendAct, Options{Prefetch: true}},
	} {
		s, err := sched.NewGenerator().Generate(c.scheme, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		d, i := firstOp(s, c.kind)
		list := s.Lists[d]
		list[i-1], list[i] = list[i], list[i-1]
		_, err = NewRunner().Run(s, uniformFor(s, 0.1), c.opt)
		want := fmt.Sprintf("device %d runs %v before the compute that produces its payload", d, list[i-1])
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s, %v moved ahead of its producer (batch=%v): got %v, want %q", c.scheme, c.kind, c.opt.BatchComm, err, want)
		}
	}
}

// firstOp returns the device and index of the first op of kind k.
func firstOp(s *sched.Schedule, k sched.OpKind) (int, int) {
	for d, list := range s.Lists {
		for i, a := range list {
			if a.Kind == k {
				return d, i
			}
		}
	}
	panic("no " + k.String())
}
