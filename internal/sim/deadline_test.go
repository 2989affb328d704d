package sim

import (
	"testing"

	"repro/internal/sched"
)

// TestRunDeadlineAborts: a cap far below the full makespan must abort with
// exceeded=true, a partial makespan that passed the cap (the op that
// proved the cap unreachable completes before the abort), and a partial
// makespan that is still a valid lower bound on the full run.
func TestRunDeadlineAborts(t *testing.T) {
	s, err := sched.Hanayo(8, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	cost := uniformFor(s, 0.05)
	full, err := Run(s, cost, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cap := full.Makespan / 4
	r := NewRunner()
	res, exceeded, err := r.RunDeadline(s, cost, DefaultOptions(), cap)
	if err != nil {
		t.Fatal(err)
	}
	if !exceeded {
		t.Fatalf("cap %g on makespan %g: want exceeded", cap, full.Makespan)
	}
	if res.Makespan <= cap {
		t.Fatalf("partial makespan %g did not pass cap %g", res.Makespan, cap)
	}
	if res.Makespan > full.Makespan {
		t.Fatalf("partial makespan %g exceeds full makespan %g — not a lower bound",
			res.Makespan, full.Makespan)
	}
}

// TestRunDeadlineCompletesAtExactCap pins the strict-> abort semantics: a
// run whose makespan equals the cap exactly must complete (a throughput
// tie with a pruning cutoff is never lost).
func TestRunDeadlineCompletesAtExactCap(t *testing.T) {
	s, err := sched.Hanayo(8, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	cost := uniformFor(s, 0.05)
	full, err := Run(s, cost, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r := NewRunner()
	res, exceeded, err := r.RunDeadline(s, cost, DefaultOptions(), full.Makespan)
	if err != nil {
		t.Fatal(err)
	}
	if exceeded {
		t.Fatalf("cap == makespan %g: run must complete, got exceeded", full.Makespan)
	}
	if res.Makespan != full.Makespan {
		t.Fatalf("makespan %g != full %g", res.Makespan, full.Makespan)
	}
}

// TestRunDeadlineMatchesRunWhenLoose: with a generous cap the deadline
// path must reproduce Run bit-for-bit (makespan, busy, zones).
func TestRunDeadlineMatchesRunWhenLoose(t *testing.T) {
	s, err := sched.Hanayo(8, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	cost := uniformFor(s, 0.05)
	for _, opt := range []Options{DefaultOptions(), {Prefetch: false, BatchComm: true}, {Prefetch: true, BatchComm: true, FlushTime: 0.5}} {
		full, err := Run(s, cost, opt)
		if err != nil {
			t.Fatal(err)
		}
		r := NewRunner()
		res, exceeded, err := r.RunDeadline(s, cost, opt, full.Makespan*10)
		if err != nil {
			t.Fatal(err)
		}
		if exceeded {
			t.Fatal("loose cap: want completed run")
		}
		if res.Makespan != full.Makespan || res.Zones != full.Zones {
			t.Fatalf("deadline path diverged: makespan %g vs %g, zones %v vs %v",
				res.Makespan, full.Makespan, res.Zones, full.Zones)
		}
		for d := range full.Busy {
			if res.Busy[d] != full.Busy[d] {
				t.Fatalf("device %d busy %g vs %g", d, res.Busy[d], full.Busy[d])
			}
		}
	}
}

// TestRunDeadlineErrors: a non-positive cap is a caller bug, not a sweep
// outcome.
func TestRunDeadlineErrors(t *testing.T) {
	s, err := sched.Hanayo(4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	cost := uniformFor(s, 0)
	r := NewRunner()
	if _, _, err := r.RunDeadline(s, cost, DefaultOptions(), 0); err == nil {
		t.Fatal("cap 0: want error")
	}
	if _, _, err := r.RunDeadline(s, cost, DefaultOptions(), -1); err == nil {
		t.Fatal("cap -1: want error")
	}
}

// TestRunDeadlineAllocsZero pins the abort path's steady-state allocation
// budget at zero: the sentinel error flows raw through the interpreter
// (no wrapping), and the partial result reuses the Runner's arenas — a
// pruned sweep cell must cost no garbage.
func TestRunDeadlineAllocsZero(t *testing.T) {
	s, err := sched.Hanayo(8, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	var cost Cost = uniformFor(s, 0.05) // box once: the interface conversion is the caller's cost
	full, err := Run(s, cost, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	cap := full.Makespan / 4
	r := NewRunner()
	if _, _, err := r.RunDeadline(s, cost, DefaultOptions(), cap); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		_, exceeded, err := r.RunDeadline(s, cost, DefaultOptions(), cap)
		if err != nil {
			t.Fatal(err)
		}
		if !exceeded {
			t.Fatal("want exceeded")
		}
	})
	if allocs != 0 {
		t.Fatalf("deadline abort allocates %.1f/op, want 0", allocs)
	}
	// And the completing deadline path stays at 0 too.
	allocs = testing.AllocsPerRun(20, func() {
		_, exceeded, err := r.RunDeadline(s, cost, DefaultOptions(), full.Makespan*2)
		if err != nil {
			t.Fatal(err)
		}
		if exceeded {
			t.Fatal("want completed")
		}
	})
	if allocs != 0 {
		t.Fatalf("deadline complete allocates %.1f/op, want 0", allocs)
	}
}

// TestAbortedRunsReportFullPeaks pins PeakActs as the full-iteration count:
// a RunDeadline abort and a Fail event both stop the walk early — the
// executed prefix's own curve peaks lower — yet report the schedule's
// sched.Schedule.PeakActs on every device.
func TestAbortedRunsReportFullPeaks(t *testing.T) {
	s, err := sched.Hanayo(8, 2, 16)
	if err != nil {
		t.Fatal(err)
	}
	cost := uniformFor(s, 0.05)
	full, err := Run(s, cost, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	early := full.Makespan / 8
	r := NewRunner()
	capped, exceeded, err := r.RunDeadline(s, cost, DefaultOptions(), early)
	if err != nil || !exceeded {
		t.Fatalf("cap %g: exceeded=%v err=%v", early, exceeded, err)
	}
	checkFullPeaks(t, "deadline", s, capped)
	failed, _, err := r.RunFaults(s, cost, DefaultOptions(), &FaultPlan{Events: []FaultEvent{Fail(0, early)}}, 0)
	if err != nil || !failed.Failed {
		t.Fatalf("fail at %g: failed=%v err=%v", early, failed.Failed, err)
	}
	checkFullPeaks(t, "fail", s, failed)
}

func checkFullPeaks(t *testing.T, label string, s *sched.Schedule, r *Result) {
	t.Helper()
	want := s.PeakActs(nil)
	below := false
	for d := range want {
		if r.PeakActs[d] != want[d] {
			t.Fatalf("%s: device %d reports peak %d, schedule's %d", label, d, r.PeakActs[d], want[d])
		}
		below = below || PeakOf(ActivationTimeline(r, d)) < want[d]
	}
	if !below {
		t.Fatalf("%s: the abort came too late to show the prefix's lower peak", label)
	}
}
