package core

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/sim"
)

// TestStragglerFlipsTopScheme is the fault model's acceptance criterion:
// on at least one (cluster, model) pair the degraded ":straggler" preset
// (device 0 at half speed) elects a different top-1 configuration than
// the healthy cluster — the ranking genuinely depends on the fault axis,
// it doesn't just rescale. On fc × BERTStyle the healthy winner is a
// deep-wave Hanayo at P=2; halving device 0 drags every scheme that
// funnels work through it and DAPPLE takes the row.
func TestStragglerFlipsTopScheme(t *testing.T) {
	model := nn.BERTStyle()
	space := SearchSpace{B: 8, MicroRows: 2, Workers: 4}
	healthy, err := cluster.ByName("fc", 8)
	if err != nil {
		t.Fatal(err)
	}
	degraded, err := cluster.ByName("fc:straggler", 8)
	if err != nil {
		t.Fatal(err)
	}
	hb, ok := Best(AutoTune(healthy, model, space))
	if !ok {
		t.Fatal("healthy sweep found no feasible candidate")
	}
	db, ok := Best(AutoTune(degraded, model, space))
	if !ok {
		t.Fatal("degraded sweep found no feasible candidate")
	}
	if hb.Plan.Scheme == db.Plan.Scheme && hb.Plan.P == db.Plan.P && hb.Plan.D == db.Plan.D {
		t.Fatalf("straggler did not flip the top-1: both elect %s P=%d D=%d",
			hb.Plan.Scheme, hb.Plan.P, hb.Plan.D)
	}
	if db.Throughput >= hb.Throughput {
		t.Fatalf("degraded best %.3f seq/s should trail healthy best %.3f", db.Throughput, hb.Throughput)
	}
}

// TestTopKExactOnPerturbedCluster extends the bound-and-prune exactness
// criterion to the fault axis: on a cluster with a straggler and a
// degraded link, under a degradation-only FaultPlan, the TopK prefix must
// stay bit-for-bit identical to the exhaustive faulty sweep — the
// analytic bound remains a proven floor, so pruning never touches a
// top-K cell.
func TestTopKExactOnPerturbedCluster(t *testing.T) {
	cl := cluster.TACC(32).WithStraggler(2, 0.5).WithLinkDegrade(0, 1, 0.25)
	model := nn.BERTStyle()
	plan := &sim.FaultPlan{Events: []sim.FaultEvent{
		sim.SlowDown(1, 0.8, 0.5),
		sim.LinkDegrade(2, 3, 0.5, 1),
	}}
	mk := func(topK int) SearchSpace {
		s := topKSpace(1, topK, false)
		s.Faults = plan
		return s
	}
	want := AutoTune(cl, model, mk(0))
	for _, topK := range []int{1, 3} {
		got := AutoTune(cl, model, mk(topK))
		if len(got) != len(want) {
			t.Fatalf("topK=%d: %d candidates, want %d", topK, len(got), len(want))
		}
		for i := 0; i < topK; i++ {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("topK=%d rank %d differs on the perturbed cluster\ngot:  %+v\nwant: %+v",
					topK, i, got[i], want[i])
			}
		}
		for _, c := range got {
			if c.BoundPruned && c.Bound <= 0 {
				t.Fatalf("bound-pruned %s P=%d without a proven bound", c.Plan.Scheme, c.Plan.P)
			}
		}
	}
}

// TestFaultSweepCacheIsolation: the FaultPlan fingerprint in the cache
// key keeps faulty and fault-free sweeps from serving each other, while
// a repeated faulty sweep is served entirely from cache (zero fresh
// simulations) with the identical ranking.
func TestFaultSweepCacheIsolation(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	tuner := NewTuner(TunerOptions{Runners: 2})
	clean := fig10Space(2, false)
	faulty := clean
	faulty.Faults = &sim.FaultPlan{Events: []sim.FaultEvent{sim.SlowDown(0, 0.5, 0)}}

	base := tuner.AutoTune(cl, model, clean)
	afterClean := simRuns.Load()
	degraded := tuner.AutoTune(cl, model, faulty)
	if d := simRuns.Load() - afterClean; d == 0 {
		t.Fatal("faulty sweep served from fault-free cache entries")
	}
	cb, ok1 := Best(base)
	db, ok2 := Best(degraded)
	if !ok1 || !ok2 {
		t.Fatal("both sweeps must find feasible candidates")
	}
	if db.Throughput >= cb.Throughput {
		t.Fatalf("slowdown sweep best %.3f should trail fault-free best %.3f", db.Throughput, cb.Throughput)
	}

	before := simRuns.Load()
	again := tuner.AutoTune(cl, model, faulty)
	if d := simRuns.Load() - before; d != 0 {
		t.Fatalf("repeated faulty sweep issued %d simulations, want 0", d)
	}
	if len(again) != len(degraded) {
		t.Fatalf("repeat ranking has %d candidates, want %d", len(again), len(degraded))
	}
	for i := range again {
		if again[i].Throughput != degraded[i].Throughput || again[i].Plan.Scheme != degraded[i].Plan.Scheme {
			t.Fatalf("rank %d drifted on the cached repeat: %+v vs %+v", i, again[i], degraded[i])
		}
	}
}

// TestFailedCellsSurfaceDeterministically: a plan that kills device 0 at
// t=0 makes every cell infeasible — Candidate.Failed verdicts with a
// recovery estimate, not errors, not OOM — and cache-served repeats keep
// the full diagnostic.
func TestFailedCellsSurfaceDeterministically(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	space := fig10Space(2, false)
	space.Faults = &sim.FaultPlan{Events: []sim.FaultEvent{sim.Fail(0, 0)}, RestartCost: 2}
	tuner := NewTuner(TunerOptions{Runners: 2})
	cands := tuner.AutoTune(cl, model, space)
	if len(cands) == 0 {
		t.Fatal("empty sweep")
	}
	for _, c := range cands {
		if c.Err != nil {
			t.Fatalf("%s P=%d: failed cell surfaced as error: %v", c.Plan.Scheme, c.Plan.P, c.Err)
		}
		if !c.Failed || c.OOM || c.Throughput != 0 {
			t.Fatalf("%s P=%d: want a Failed verdict, got %+v", c.Plan.Scheme, c.Plan.P, c)
		}
		if c.FailedDevice != 0 || c.RecoveryS <= space.Faults.RestartCost {
			t.Fatalf("%s P=%d: diagnostic malformed: dev=%d recovery=%g",
				c.Plan.Scheme, c.Plan.P, c.FailedDevice, c.RecoveryS)
		}
	}
	if _, ok := Best(cands); ok {
		t.Fatal("an all-failed sweep must have no best candidate")
	}
	// The cached repeat issues no simulations and preserves diagnostics.
	before := simRuns.Load()
	again := tuner.AutoTune(cl, model, space)
	if d := simRuns.Load() - before; d != 0 {
		t.Fatalf("cached repeat issued %d simulations, want 0", d)
	}
	for i := range again {
		if !again[i].Failed || again[i].RecoveryS != cands[i].RecoveryS {
			t.Fatalf("rank %d: cached verdict lost the diagnostic: %+v vs %+v", i, again[i], cands[i])
		}
	}
}

// TestPlanValidateRejectsBadFaultPlan: a plan targeting devices beyond
// the pipeline fails validation at the Plan level.
func TestPlanValidateRejectsBadFaultPlan(t *testing.T) {
	p := Plan{Scheme: "gpipe", Cluster: cluster.TACC(8), Model: nn.BERTStyle(),
		P: 4, D: 1, B: 8, MicroRows: 2,
		Faults: &sim.FaultPlan{Events: []sim.FaultEvent{sim.Fail(7, 0)}}}
	if err := p.Validate(); err == nil {
		t.Fatal("fault on device 7 of a 4-device pipeline must fail validation")
	}
	p.Faults = &sim.FaultPlan{Events: []sim.FaultEvent{sim.Fail(3, 0)}}
	if err := p.Validate(); err != nil {
		t.Fatalf("in-range fault plan rejected: %v", err)
	}
}

// TestPruneRankingIndependentOfCacheHistory: neither the memory-first
// front end nor a Tuner's cache may change what a sweep reports. On GPT ×
// TACC(32), fault-free and under a plan that kills device 1 at t=0.3 s
// (which turns the fault-free OOM cell into a Failed one, a verdict only
// the simulation can reach), one Tuner serves a Prune sweep and an
// unpruned one in either order, and each ranking equals a standalone
// AutoTune of the same space field for field. The Prune ranking equals the
// unpruned one but for Pruned, which the Fail plan leaves unset.
func TestPruneRankingIndependentOfCacheHistory(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.GPTStyle()
	type cell struct {
		scheme string
		p, d   int
	}
	freeOOM := map[cell]bool{}
	kill := &sim.FaultPlan{Events: []sim.FaultEvent{sim.Fail(1, 0.3)}}
	for _, faults := range []*sim.FaultPlan{nil, kill} {
		label := "fault-free"
		if faults != nil {
			label = "fail(1, 0.3)"
		}
		want := map[bool][]Candidate{}
		for _, prune := range []bool{false, true} {
			space := fig10Space(2, prune)
			space.Faults = faults
			want[prune] = AutoTune(cl, model, space)
		}
		prunedMatchesUnpruned(t, label, want[true], want[false])
		pruned, oomFailed := 0, 0
		for _, c := range want[true] {
			k := cell{c.Plan.Scheme, c.Plan.P, c.Plan.D}
			if c.Pruned {
				pruned++
			}
			if faults == nil && c.OOM {
				freeOOM[k] = true
			}
			if faults != nil && c.Failed && freeOOM[k] {
				oomFailed++
			}
		}
		if faults == nil && pruned == 0 {
			t.Fatalf("%s: the Prune sweep pruned nothing — the grid has no OOM cell", label)
		}
		if faults != nil && (pruned != 0 || oomFailed == 0) {
			t.Fatalf("%s: %d pruned rows (want 0), %d fault-free OOM cells Failed (want > 0)", label, pruned, oomFailed)
		}
		for _, order := range [][2]bool{{true, false}, {false, true}} {
			tuner := NewTuner(TunerOptions{Runners: 2})
			for _, prune := range order {
				space := fig10Space(2, prune)
				space.Faults = faults
				got := tuner.AutoTune(cl, model, space)
				if !reflect.DeepEqual(got, want[prune]) {
					t.Errorf("%s order %v, prune=%v: Tuner ranking differs from standalone\ngot:  %+v\nwant: %+v",
						label, order, prune, got, want[prune])
				}
			}
		}
	}
}

// TestEvaluateFailedCarriesVerdict: Plan.Evaluate on a plan whose fault
// plan kills a device returns the failed run in Sim — the verdict xtr02
// prints (device 2 dies at t=0.23s, recovery estimate 1.82s) and the one a
// sweep's FAIL cell carries, field for field — with no memory estimate,
// no fit and no throughput.
func TestEvaluateFailedCarriesVerdict(t *testing.T) {
	cl, err := cluster.ByName("fc", 8)
	if err != nil {
		t.Fatal(err)
	}
	plan := Plan{Scheme: "hanayo-w2", Cluster: cl, Model: nn.BERTStyle(), P: 4, D: 2, B: 8, MicroRows: 2}
	ref, err := plan.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	plan.Faults = &sim.FaultPlan{
		Events:      []sim.FaultEvent{sim.Fail(2, 0.4*ref.Sim.Makespan)},
		RestartCost: 2 * ref.Sim.Makespan,
	}
	e, err := plan.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	r := e.Sim
	if r == nil || !r.Failed {
		t.Fatalf("Sim = %+v, want the failed run", r)
	}
	if got := fmt.Sprintf("%d %.2f %.2f", r.FailedDevice, r.FailTime, r.Recovery); got != "2 0.23 1.82" {
		t.Fatalf("verdict %q, want xtr02's \"2 0.23 1.82\"", got)
	}
	if e.Memory != nil || e.Fits || e.Throughput != 0 {
		t.Fatalf("failed Eval carries Memory=%v Fits=%v Throughput=%g, want none", e.Memory, e.Fits, e.Throughput)
	}
	cands := AutoTune(cl, plan.Model, SearchSpace{Schemes: []string{}, PD: [][2]int{{4, 2}}, Waves: []int{2},
		B: 8, MicroRows: 2, Workers: 1, Faults: plan.Faults})
	if len(cands) != 1 {
		t.Fatalf("got %d candidates, want 1", len(cands))
	}
	if c := cands[0]; !c.Failed || c.FailedDevice != r.FailedDevice || c.FailTimeS != r.FailTime || c.RecoveryS != r.Recovery {
		t.Fatalf("sweep cell %+v disagrees with Evaluate's %+v", c, r)
	}
}
