package exec_test

// Reuse and leak tests for the exec.Loop reusable driver: the Record
// timeline arenas behind sim.Runner must survive shape changes, repeated
// runs, and — for the concurrent driver, Replicas — cancellation
// mid-schedule, without leaking goroutines or stale records.

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/sched"
)

// TestMain fails the package if any test leaves a goroutine behind: after
// the tests, the goroutine count must return to its baseline within 2 s,
// or every stack is printed and the run fails.
func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
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

// TestLoopReuseMatchesFreshRuns drives one Loop across growing and
// shrinking shapes and checks each run's timelines against a run of a
// fresh Loop.
func TestLoopReuseMatchesFreshRuns(t *testing.T) {
	var l exec.Loop
	shapes := [][2]int{{2, 2}, {8, 8}, {4, 4}, {2, 2}}
	for _, shape := range shapes {
		s, err := sched.Hanayo(shape[0], 2, shape[1])
		if err != nil {
			t.Fatal(err)
		}
		var cFresh, cReused countBackend
		var lFresh exec.Loop
		fresh, err := lFresh.Run(s, &cFresh, exec.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		reused, err := l.Run(s, &cReused, exec.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(reused) != len(fresh) {
			t.Fatalf("P=%d: %d devices, fresh run has %d", shape[0], len(reused), len(fresh))
		}
		for d := range fresh {
			if len(reused[d]) != len(fresh[d]) {
				t.Fatalf("P=%d device %d: %d records, fresh run has %d",
					shape[0], d, len(reused[d]), len(fresh[d]))
			}
			for i := range fresh[d] {
				if reused[d][i].Action != fresh[d][i].Action {
					t.Fatalf("P=%d device %d record %d: %+v != %+v",
						shape[0], d, i, reused[d][i].Action, fresh[d][i].Action)
				}
			}
		}
	}
}

// TestLoopAllocsSteadyState pins the reusable driver at zero allocations
// per run once warm (the countBackend itself allocates nothing).
func TestLoopAllocsSteadyState(t *testing.T) {
	s, err := sched.Hanayo(4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	var l exec.Loop
	var c countBackend
	if _, err := l.Run(s, &c, exec.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := l.Run(s, &c, exec.DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Loop.Run allocates %.1f times per run, want 0", allocs)
	}
}

// TestLoopConcurrentReuseAfterCancellation is the leak/reuse test for
// the concurrent driver under cancellation: a single-replica run torn down
// by a mid-schedule hook error must join every device goroutine (no
// leaks), and the same Replicas must then drive a clean run producing
// complete, correct timelines (no stale partial records from the aborted
// iteration).
func TestLoopConcurrentReuseAfterCancellation(t *testing.T) {
	s, err := sched.DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()
	var g exec.Replicas
	for i := 0; i < 3; i++ {
		if _, err := g.Run(s, []exec.Backend{&cancelBackend{}}, exec.DefaultOptions()); err == nil {
			t.Fatal("the injected hook failure must surface")
		}
	}
	// All device goroutines must have been joined despite the teardown.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("cancelled runs leaked goroutines: %d before, %d after", before, now)
	}

	// The same driver must produce a full, clean iteration afterwards.
	var c countBackend
	replicas, err := g.Run(s, []exec.Backend{&c}, exec.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	recs := replicas[0]
	want := int64(s.CountKind(sched.OpForward) + s.CountKind(sched.OpBackward))
	if got := c.compute.Load(); got != want {
		t.Fatalf("post-cancellation run retired %d compute ops, schedule has %d", got, want)
	}
	var n int64
	for _, rs := range recs {
		n += int64(len(rs))
	}
	if n != want {
		t.Fatalf("post-cancellation timelines hold %d records, want %d (stale records from the aborted run?)", n, want)
	}
}

// parkedBackend never fails: its devices block in Recv until the driver's
// done channel closes. Driven alone it would wait forever, so it only
// returns when a failure somewhere else reaches its cancellation.
type parkedBackend struct {
	countBackend
	done <-chan struct{}
}

func (b *parkedBackend) SetDone(done <-chan struct{}) { b.done = done }

func (b *parkedBackend) Recv(d, i int, a sched.Action) error {
	<-b.done
	return fmt.Errorf("device %d recv: %w", d, exec.ErrCanceled)
}

// TestReplicasShareCancellation: Replicas.Run runs its replicas under one
// cancellation. A hook failure in replica 0 must release replica 1's
// devices, which wait on nothing else (a private done channel per replica
// leaves them parked and this test times out), the reported error is the
// failure and not an echo, and the driver then runs a clean two-replica
// run with complete per-replica timelines and no per-run bookkeeping left
// to allocate beyond the device goroutines.
func TestReplicasShareCancellation(t *testing.T) {
	s, err := sched.DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	var g exec.Replicas
	res := make(chan error, 1)
	go func() {
		_, err := g.Run(s, []exec.Backend{&cancelBackend{}, &parkedBackend{}}, exec.DefaultOptions())
		res <- err
	}()
	select {
	case err := <-res:
		if err == nil || errors.Is(err, exec.ErrCanceled) || !strings.Contains(err.Error(), "injected hook failure") {
			t.Fatalf("Run reported %v, want the injected hook failure", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("replica 1 never heard of replica 0's failure")
	}

	want := s.CountKind(sched.OpForward) + s.CountKind(sched.OpBackward)
	backends := []exec.Backend{&countBackend{}, &countBackend{}}
	run := func() {
		recs, err := g.Run(s, backends, exec.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 2 {
			t.Fatalf("%d replica timelines, want 2", len(recs))
		}
		for r, devs := range recs {
			n := 0
			for _, rs := range devs {
				n += len(rs)
			}
			if len(devs) != s.P || n != want {
				t.Fatalf("replica %d: %d devices, %d records; want %d and %d", r, len(devs), n, s.P, want)
			}
		}
	}
	run()
	// One closure per device goroutine is what a warm run may allocate.
	if n := testing.AllocsPerRun(10, run); n > float64(2*s.P) {
		t.Fatalf("a warm Replicas.Run allocates %.0f objects for %d device goroutines", n, 2*s.P)
	}
}
