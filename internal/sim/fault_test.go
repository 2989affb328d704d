package sim

import (
	"math"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/sched"
)

func faultTestSchedule(t *testing.T) (*sched.Schedule, Cost) {
	t.Helper()
	s, err := sched.Hanayo(4, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(s.S) / float64(s.P)
	return s, costmodel.Uniform{Tf: 1 / per, Tb: 2 / per, Tc: 0.05}
}

// runFaults runs s under plan on r, uncapped, with the default options.
func runFaults(r *Runner, s *sched.Schedule, cost Cost, plan *FaultPlan) (*Result, error) {
	res, _, err := r.RunFaults(s, cost, DefaultOptions(), plan, 0)
	return res, err
}

// TestRunFaultsNilMatchesRun pins RunFaults(nil) and RunFaults(empty) to
// the exact Run result: the fault path must be invisible when no fault is
// present.
func TestRunFaultsNilMatchesRun(t *testing.T) {
	s, cost := faultTestSchedule(t)
	base, err := Run(s, cost, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, plan := range []*FaultPlan{nil, {}} {
		r, err := runFaults(NewRunner(), s, cost, plan)
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed || r.Makespan != base.Makespan || r.BubbleRatio() != base.BubbleRatio() {
			t.Fatalf("plan %+v: got makespan %g failed=%v, want %g", plan, r.Makespan, r.Failed, base.Makespan)
		}
	}
}

// TestSlowDownStretchesMakespan checks monotonicity: harsher slowdowns
// yield strictly longer makespans, and a slowdown timed after the run
// completes changes nothing.
func TestSlowDownStretchesMakespan(t *testing.T) {
	s, cost := faultTestSchedule(t)
	base, err := Run(s, cost, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prev := base.Makespan
	for _, f := range []float64{0.8, 0.5, 0.25} {
		r, err := runFaults(NewRunner(), s, cost, &FaultPlan{Events: []FaultEvent{SlowDown(0, f, 0)}})
		if err != nil {
			t.Fatal(err)
		}
		if r.Failed || r.Makespan <= prev {
			t.Fatalf("factor %g: makespan %g, want > %g", f, r.Makespan, prev)
		}
		prev = r.Makespan
	}
	late, err := runFaults(NewRunner(), s, cost,
		&FaultPlan{Events: []FaultEvent{SlowDown(0, 0.25, base.Makespan+1)}})
	if err != nil {
		t.Fatal(err)
	}
	if late.Makespan != base.Makespan {
		t.Fatalf("post-completion slowdown changed makespan: %g != %g", late.Makespan, base.Makespan)
	}
}

// TestLinkDegradeStretchesMakespan: degrading a pipeline boundary link
// from t=0 lengthens the run; an untouched pair does not shrink it.
func TestLinkDegradeStretchesMakespan(t *testing.T) {
	s, cost := faultTestSchedule(t)
	base, err := Run(s, cost, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	r, err := runFaults(NewRunner(), s, cost,
		&FaultPlan{Events: []FaultEvent{LinkDegrade(0, 1, 0.1, 0)}})
	if err != nil {
		t.Fatal(err)
	}
	if r.Failed || r.Makespan <= base.Makespan {
		t.Fatalf("degraded link makespan %g, want > %g", r.Makespan, base.Makespan)
	}
}

// TestFailMidScheduleDeterministic is the fault-injection test of the
// issue: kill a device mid-schedule and assert the deterministic
// infeasible-with-recovery verdict — Failed set, the triggering event
// identified, the recovery estimate strictly beyond both the abort
// high-water mark and the fault time, and every field identical across
// repeated runs and across Runner reuse.
func TestFailMidScheduleDeterministic(t *testing.T) {
	s, cost := faultTestSchedule(t)
	base, err := Run(s, cost, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan := &FaultPlan{
		Events:      []FaultEvent{Fail(2, base.Makespan/2)},
		RestartCost: 5,
	}
	run := func(r *Runner) *Result {
		res, err := runFaults(r, s, cost, plan)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	first := run(NewRunner())
	if !first.Failed {
		t.Fatal("mid-schedule Fail must mark the run failed")
	}
	if first.FailedDevice != 2 || first.FailTime != base.Makespan/2 {
		t.Fatalf("verdict identifies dev %d at %g, want dev 2 at %g",
			first.FailedDevice, first.FailTime, base.Makespan/2)
	}
	if first.Makespan >= base.Makespan {
		t.Fatalf("aborted prefix makespan %g should be below the full run's %g", first.Makespan, base.Makespan)
	}
	if first.Recovery <= first.FailTime+plan.RestartCost {
		t.Fatalf("recovery %g must exceed fail time %g + restart cost %g",
			first.Recovery, first.FailTime, plan.RestartCost)
	}
	// Deterministic across runs, including on a reused Runner that just
	// executed an unrelated fault-free run.
	reused := NewRunner()
	if _, err := reused.Run(s, cost, DefaultOptions()); err != nil {
		t.Fatal(err)
	}
	for _, again := range []*Result{run(NewRunner()), run(reused)} {
		if again.Failed != first.Failed || again.FailedDevice != first.FailedDevice ||
			again.FailTime != first.FailTime || again.Recovery != first.Recovery ||
			again.Makespan != first.Makespan {
			t.Fatalf("verdict not deterministic: %+v vs %+v", again, first)
		}
	}
	// A failure timed after completion must not fire.
	ok, err := runFaults(NewRunner(), s, cost,
		&FaultPlan{Events: []FaultEvent{Fail(2, base.Makespan)}})
	if err != nil {
		t.Fatal(err)
	}
	if ok.Failed || ok.Makespan != base.Makespan {
		t.Fatalf("failure at the completion instant must not fire (failed=%v makespan=%g)", ok.Failed, ok.Makespan)
	}
}

// TestRunFaultsAllocsPinned extends the simulator's allocation guard to
// the fault path: a non-empty FaultPlan (all three event kinds) must keep
// Runner.Run at ~0 allocs/op steady state — the per-run timeline
// compilation reuses monotonically grown arenas, never allocating once
// the Runner has seen the shape.
func TestRunFaultsAllocsPinned(t *testing.T) {
	s, err := sched.Hanayo(8, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(s.S) / float64(s.P)
	cost := costmodel.Uniform{Tf: 1 / per, Tb: 2 / per, Tc: 0.05}
	plan := &FaultPlan{
		Events: []FaultEvent{
			SlowDown(0, 0.5, 1),
			LinkDegrade(0, 1, 0.5, 2),
			Fail(3, 1e9), // never fires: the walk must stay on the full path
		},
		RestartCost: 5,
	}
	r := NewRunner()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := runFaults(r, s, cost, plan); err != nil {
			t.Fatal(err)
		}
	})
	ops := float64(s.NumActions())
	if perOp := allocs / ops; perOp > 0.05 {
		t.Fatalf("fault path allocates: %.1f allocs/run over %d ops = %.3f allocs/op (want ≈0)",
			allocs, int(ops), perOp)
	}
	if allocs > 60 {
		t.Fatalf("setup allocations grew to %.0f per run (budget 60)", allocs)
	}
}

func TestFaultPlanValidate(t *testing.T) {
	bad := []*FaultPlan{
		{Events: []FaultEvent{SlowDown(0, 0, 0)}},             // zero factor
		{Events: []FaultEvent{SlowDown(0, 1.5, 0)}},           // speedup factor
		{Events: []FaultEvent{SlowDown(4, 0.5, 0)}},           // device out of range
		{Events: []FaultEvent{LinkDegrade(0, 0, 0.5, 0)}},     // self link
		{Events: []FaultEvent{LinkDegrade(0, 9, 0.5, 0)}},     // peer out of range
		{Events: []FaultEvent{Fail(1, -1)}},                   // negative timestamp
		{Events: []FaultEvent{Fail(1, math.Inf(1))}},          // infinite timestamp
		{Events: []FaultEvent{{Kind: FaultKind(42), Dev: 0}}}, // unknown kind
		{RestartCost: -1}, // negative restart cost
	}
	for i, p := range bad {
		if err := p.Validate(4); err == nil {
			t.Errorf("plan %d should fail validation: %+v", i, p)
		}
	}
	good := &FaultPlan{Events: []FaultEvent{SlowDown(3, 1, 0), LinkDegrade(0, 3, 0.5, 2), Fail(1, 7)},
		RestartCost: 3}
	if err := good.Validate(4); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
	if err := (*FaultPlan)(nil).Validate(4); err != nil {
		t.Fatalf("nil plan rejected: %v", err)
	}
}

func TestFaultPlanJSON(t *testing.T) {
	src := []byte(`{"restart_cost": 5,
		"events": [{"kind": "slowdown", "dev": 0, "at": 0, "factor": 0.5},
		           {"kind": "linkdegrade", "dev": 0, "peer": 1, "at": 1.5, "factor": 0.25},
		           {"kind": "fail", "dev": 2, "at": 3.5}]}`)
	p, err := ParseFaultPlan(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Events) != 3 || p.RestartCost != 5 {
		t.Fatalf("parsed %+v", p)
	}
	want := []FaultEvent{SlowDown(0, 0.5, 0), LinkDegrade(0, 1, 0.25, 1.5), Fail(2, 3.5)}
	for i, e := range p.Events {
		if e != want[i] {
			t.Fatalf("event %d: %+v, want %+v", i, e, want[i])
		}
	}
	if err := p.Validate(4); err != nil {
		t.Fatal(err)
	}
	if _, err := ParseFaultPlan([]byte(`{"events": [{"kind": "explode", "dev": 0}]}`)); err == nil {
		t.Fatal("unknown kind must be rejected")
	}
	if _, err := ParseFaultPlan([]byte(`{"evnets": []}`)); err == nil {
		t.Fatal("unknown field must be rejected")
	}
}

// TestFaultPlanFingerprint: nil and empty plans digest to 0 (fault-free
// cache keys stay unchanged); any event or restart-cost difference
// changes the digest.
func TestFaultPlanFingerprint(t *testing.T) {
	if (*FaultPlan)(nil).Fingerprint() != 0 || (&FaultPlan{}).Fingerprint() != 0 {
		t.Fatal("empty plans must digest to 0")
	}
	a := &FaultPlan{Events: []FaultEvent{SlowDown(0, 0.5, 1)}}
	variants := []*FaultPlan{
		{Events: []FaultEvent{SlowDown(0, 0.5, 1)}, RestartCost: 1},
		{Events: []FaultEvent{SlowDown(1, 0.5, 1)}},
		{Events: []FaultEvent{SlowDown(0, 0.25, 1)}},
		{Events: []FaultEvent{SlowDown(0, 0.5, 2)}},
		{Events: []FaultEvent{LinkDegrade(0, 1, 0.5, 1)}},
		{Events: []FaultEvent{Fail(0, 1)}},
	}
	if a.Fingerprint() == 0 {
		t.Fatal("non-empty plan must not digest to 0")
	}
	if b := (&FaultPlan{Events: []FaultEvent{SlowDown(0, 0.5, 1)}}); a.Fingerprint() != b.Fingerprint() {
		t.Fatal("equal plans must digest equally")
	}
	for i, v := range variants {
		if v.Fingerprint() == a.Fingerprint() {
			t.Errorf("variant %d collides with the base plan", i)
		}
	}
}

// TestRunFaultsCap pins RunFaults' cap: a negative or NaN cap is an
// error, a cap below the makespan aborts exactly as RunDeadline does, and
// a Fail event firing before the cap reports the failure verdict, not
// the abort.
func TestRunFaultsCap(t *testing.T) {
	s, cost := faultTestSchedule(t)
	base, err := Run(s, cost, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []float64{-1, math.Inf(-1), math.NaN()} {
		if _, _, err := NewRunner().RunFaults(s, cost, DefaultOptions(), nil, c); err == nil {
			t.Fatalf("cap %g must be rejected", c)
		}
	}
	capped := base.Makespan / 2
	want, wantEx, err := NewRunner().RunDeadline(s, cost, DefaultOptions(), capped)
	if err != nil || !wantEx {
		t.Fatalf("RunDeadline at half the makespan: exceeded=%v err=%v", wantEx, err)
	}
	got, ex, err := NewRunner().RunFaults(s, cost, DefaultOptions(), nil, capped)
	if err != nil || !ex || got.Makespan != want.Makespan {
		t.Fatalf("capped RunFaults: exceeded=%v makespan %g err=%v, want exceeded at %g",
			ex, got.Makespan, err, want.Makespan)
	}
	plan := &FaultPlan{Events: []FaultEvent{Fail(2, base.Makespan/4)}, RestartCost: 5}
	failed, ex, err := NewRunner().RunFaults(s, cost, DefaultOptions(), plan, capped)
	if err != nil || ex || !failed.Failed || failed.FailedDevice != 2 {
		t.Fatalf("fail before the cap: exceeded=%v failed=%v dev=%d err=%v, want the failure verdict",
			ex, failed.Failed, failed.FailedDevice, err)
	}
}
