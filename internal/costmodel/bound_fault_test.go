package costmodel

import (
	"math/rand"
	"testing"

	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestLowerBoundSoundUnderHeterogeneity is the fault-model soundness
// property: across all nine schemes, the analytic bound — computed on a
// perturbed cluster (random stragglers and degraded links) — must stay at
// or below the makespan simulated under a random degradation-only
// FaultPlan on that same cluster. Static heterogeneity the bound sees
// exactly; dynamic faults it never sees, and soundness rests on the
// (0, 1] factor restriction. A violation here means the bound-and-prune
// sweep could prune a cell that belongs in the exact top-K.
func TestLowerBoundSoundUnderHeterogeneity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	model := nn.BERTStyle()
	w := Workload{Model: model, MicroRows: 2}
	bases := []func(int) *cluster.Cluster{
		cluster.TACC, cluster.Tencent, cluster.PartialNVLink, cluster.FullNVLink,
	}
	shapes := [][2]int{{2, 4}, {4, 8}, {8, 8}}
	for trial := 0; trial < 40; trial++ {
		cl := bases[rng.Intn(len(bases))](8)
		// Random static perturbations: 0–2 stragglers, 0–2 degraded links.
		for i := rng.Intn(3); i > 0; i-- {
			cl = cl.WithStraggler(rng.Intn(8), 0.25+0.75*rng.Float64())
		}
		for i := rng.Intn(3); i > 0; i-- {
			a := rng.Intn(8)
			b := (a + 1 + rng.Intn(7)) % 8
			cl = cl.WithLinkDegrade(a, b, 0.1+0.9*rng.Float64())
		}
		shape := shapes[rng.Intn(len(shapes))]
		p, b := shape[0], shape[1]
		// Random degradation-only plan: factors in (0,1], timestamps
		// spread over a plausible run horizon.
		var plan *sim.FaultPlan
		if rng.Intn(4) > 0 {
			plan = &sim.FaultPlan{}
			for i := rng.Intn(4); i > 0; i-- {
				at := rng.Float64() * 10
				f := 0.1 + 0.9*rng.Float64()
				if rng.Intn(2) == 0 {
					plan.Events = append(plan.Events, sim.SlowDown(rng.Intn(p), f, at))
				} else {
					x := rng.Intn(p)
					y := (x + 1 + rng.Intn(p-1)) % p
					plan.Events = append(plan.Events, sim.LinkDegrade(x, y, f, at))
				}
			}
		}
		for _, scheme := range boundSchemes {
			s, err := sched.ByName(scheme, p, b)
			if err != nil {
				t.Fatalf("%s p=%d b=%d: %v", scheme, p, b, err)
			}
			cost, err := New(w, cl, s)
			if err != nil {
				t.Fatal(err)
			}
			lb, err := LowerBound(w, cl, p, 1, b, scheme)
			if err != nil {
				t.Fatal(err)
			}
			r, err := runFaults(s, cost, plan)
			if err != nil {
				t.Fatal(err)
			}
			if r.Failed {
				t.Fatalf("degradation-only plan must never fail a run: %+v", plan)
			}
			if lb > r.Makespan*(1+1e-9) {
				t.Errorf("trial %d, %s on %s p=%d b=%d: bound %.9g exceeds faulty makespan %.9g (plan %+v)",
					trial, scheme, cl.Name, p, b, lb, r.Makespan, plan)
			}
		}
	}
}

// TestLowerBoundSoundWithFailedRuns: a plan containing a Fail produces an
// infeasible verdict, not a makespan competing against the bound — the
// sweep must route these to the infeasible path, so the test pins that
// the verdict carries a recovery estimate beyond the failure instant.
func TestLowerBoundSoundWithFailedRuns(t *testing.T) {
	cl := cluster.TACC(8).WithStraggler(0, 0.5)
	w := Workload{Model: nn.BERTStyle(), MicroRows: 2}
	s, err := sched.ByName("hanayo-w2", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := New(w, cl, s)
	if err != nil {
		t.Fatal(err)
	}
	base, err := sim.Run(s, cost, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{sim.Fail(1, base.Makespan/3)}, RestartCost: 1}
	r, err := runFaults(s, cost, plan)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Failed || r.Recovery <= r.FailTime {
		t.Fatalf("failed run verdict malformed: failed=%v recovery=%g failTime=%g",
			r.Failed, r.Recovery, r.FailTime)
	}
}

// runFaults simulates s under plan on a fresh Runner, uncapped.
func runFaults(s *sched.Schedule, cost sim.Cost, plan *sim.FaultPlan) (*sim.Result, error) {
	r, _, err := sim.NewRunner().RunFaults(s, cost, sim.DefaultOptions(), plan, 0)
	return r, err
}
