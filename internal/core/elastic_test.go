package core

import (
	"errors"
	"fmt"
	"math"
	goruntime "runtime"
	"testing"

	"repro/internal/cluster"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/runtime"
	"repro/internal/tensor"
)

// elasticSpace is the session-test grid: small enough to train real
// engines under every cell, with both PD pairs valid from 6 devices down
// to 5 (one leave).
func elasticSpace() SearchSpace {
	return SearchSpace{
		PD:        [][2]int{{2, 2}, {4, 1}},
		Waves:     []int{1, 2},
		B:         4,
		MicroRows: 1,
		Workers:   2,
		TopK:      2,
	}
}

// elasticModel has 16 partitionable units — enough for the deepest stage
// split the grid can pick (hanayo w2 on P=4: 16 stages).
func elasticModel() nn.Config { return nn.Tiny(14, 8, 2, 16, 4, true) }

func tensorsEqual(a, b []*tensor.Tensor) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i].Data) != len(b[i].Data) {
			return false
		}
		for j := range a[i].Data {
			if a[i].Data[j] != b[i].Data[j] {
				return false
			}
		}
	}
	return true
}

// TestElasticSessionEventParity is the drain-and-replan acceptance test:
// a session that absorbs a DeviceLeave between iterations must end with
// parameters bit-for-bit identical to the manually composed reference —
// train on plan A, snapshot, re-rank, restore into plan B's engine, train
// on — because the drain point guarantees the event lands exactly at a
// flush barrier.
func TestElasticSessionEventParity(t *testing.T) {
	model, space, cl0 := elasticModel(), elasticSpace(), cluster.TACC(6)
	genS := data.NewGenerator(7, model.Vocab, model.SeqLen)
	genR := data.NewGenerator(7, model.Vocab, model.SeqLen)

	sess, err := NewElasticSession(nil, cl0, model, ElasticOptions{Space: space, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}

	// Reference: same cold ranking, same engine, stepped by hand.
	rt := NewTuner(TunerOptions{})
	r0, _ := rt.Rerank(cl0, model, space)
	b0, err := firstFeasible(r0)
	if err != nil {
		t.Fatal(err)
	}
	engA, err := b0.Plan.Engine(42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sess.Plan().Scheme != b0.Plan.Scheme || sess.Plan().P != b0.Plan.P || sess.Plan().D != b0.Plan.D {
		t.Fatalf("session picked %+v, reference %+v", sess.Plan(), b0.Plan)
	}

	for i := 0; i < 2; i++ {
		resS, err := sess.Step(genS.Next(8))
		if err != nil {
			t.Fatalf("session step %d: %v", i, err)
		}
		resR, err := engA.Step(genR.Next(8))
		if err != nil {
			t.Fatalf("reference step %d: %v", i, err)
		}
		if resS.Loss != resR.Loss {
			t.Fatalf("step %d: session loss %v, reference %v", i, resS.Loss, resR.Loss)
		}
	}

	ev := cluster.Event{Kind: cluster.DeviceLeave, Dev: 5}
	sess.Notify(ev)

	cl1, err := cl0.Apply(ev)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := rt.Rerank(cl1, model, space)
	b1, err := firstFeasible(r1)
	if err != nil {
		t.Fatal(err)
	}
	engB, err := b1.Plan.Engine(42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := engB.Restore(engA.Snapshot()); err != nil {
		t.Fatal(err)
	}

	for i := 2; i < 4; i++ {
		resS, err := sess.Step(genS.Next(8))
		if err != nil {
			t.Fatalf("session step %d: %v", i, err)
		}
		resR, err := engB.Step(genR.Next(8))
		if err != nil {
			t.Fatalf("reference step %d: %v", i, err)
		}
		if resS.Loss != resR.Loss {
			t.Fatalf("step %d: session loss %v, reference %v", i, resS.Loss, resR.Loss)
		}
	}

	if !tensorsEqual(sess.Engine().Snapshot(), engB.Snapshot()) {
		t.Fatal("session parameters diverged from the manually replanned reference")
	}
	reps := sess.Reports()
	if len(reps) != 1 || reps[0].Trigger != "event" || reps[0].Event != ev {
		t.Fatalf("replan history wrong: %+v", reps)
	}
	if reps[0].To.Scheme != b1.Plan.Scheme || reps[0].To.P != b1.Plan.P || reps[0].To.D != b1.Plan.D {
		t.Fatalf("report says replan moved to %+v, reference picked %+v", reps[0].To, b1.Plan)
	}
	if sess.Cluster().N() != 5 {
		t.Fatalf("session cluster has %d devices after the leave, want 5", sess.Cluster().N())
	}
}

// TestElasticSessionFailureRetryParity: a mid-step device failure aborts
// the iteration without touching weights, replans without the dead
// device, and retries the same batch — so the session's trajectory equals
// the reference where that batch was only ever trained on the new plan.
func TestElasticSessionFailureRetryParity(t *testing.T) {
	model, space, cl0 := elasticModel(), elasticSpace(), cluster.TACC(6)
	genS := data.NewGenerator(11, model.Vocab, model.SeqLen)
	genR := data.NewGenerator(11, model.Vocab, model.SeqLen)

	sess, err := NewElasticSession(nil, cl0, model, ElasticOptions{Space: space, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	rt := NewTuner(TunerOptions{})
	r0, _ := rt.Rerank(cl0, model, space)
	b0, err := firstFeasible(r0)
	if err != nil {
		t.Fatal(err)
	}
	engA, err := b0.Plan.Engine(42, nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := sess.Step(genS.Next(8)); err != nil {
		t.Fatal(err)
	}
	if _, err := engA.Step(genR.Next(8)); err != nil {
		t.Fatal(err)
	}

	// Kill pipeline rank 0 at its first compute op of the next step.
	sess.FailNext(0, 0)
	resS, err := sess.Step(genS.Next(8))
	if err != nil {
		t.Fatalf("session did not recover from the injected failure: %v", err)
	}

	ev := cluster.Event{Kind: cluster.DeviceLeave, Dev: 0}
	cl1, err := cl0.Apply(ev)
	if err != nil {
		t.Fatal(err)
	}
	r1, _ := rt.Rerank(cl1, model, space)
	b1, err := firstFeasible(r1)
	if err != nil {
		t.Fatal(err)
	}
	engB, err := b1.Plan.Engine(42, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := engB.Restore(engA.Snapshot()); err != nil {
		t.Fatal(err)
	}
	resR, err := engB.Step(genR.Next(8))
	if err != nil {
		t.Fatal(err)
	}
	if resS.Loss != resR.Loss {
		t.Fatalf("retried loss %v, reference %v", resS.Loss, resR.Loss)
	}
	if !tensorsEqual(sess.Engine().Snapshot(), engB.Snapshot()) {
		t.Fatal("post-failure parameters diverged from the reference")
	}
	reps := sess.Reports()
	if len(reps) != 1 || reps[0].Trigger != "failure" || reps[0].Event != ev {
		t.Fatalf("replan history wrong: %+v", reps)
	}
	if reps[0].Elapsed <= 0 {
		t.Fatalf("report did not time the replan: %+v", reps[0])
	}
}

func planShape(p Plan) string { return fmt.Sprintf("%s P%d D%d", p.Scheme, p.P, p.D) }

// TestElasticSessionReplanChangesPlan: replans that move training to
// another shape keep the session's one engine and stay bit-exact. On six
// devices with PD {3,2},{4,1} the session trains dapple P3D2; a failure
// leaves five, where only P4D1 fits — one more device, one replica less,
// twice the rows per micro-batch. A join then restores six. After each
// replan the session must match a reference that builds a new engine for
// the plan and restores the previous engine's snapshot into it.
func TestElasticSessionReplanChangesPlan(t *testing.T) {
	model, space, cl := elasticModel(), elasticSpace(), cluster.TACC(6)
	space.PD = [][2]int{{3, 2}, {4, 1}}
	genS := data.NewGenerator(13, model.Vocab, model.SeqLen)
	genR := data.NewGenerator(13, model.Vocab, model.SeqLen)

	sess, err := NewElasticSession(nil, cl, model, ElasticOptions{Space: space, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	eng := sess.Engine()
	rt := NewTuner(TunerOptions{})
	ranking, _ := rt.Rerank(cl, model, space)
	best, err := firstFeasible(ranking)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := best.Plan.Engine(42, nil)
	if err != nil {
		t.Fatal(err)
	}
	step := func(i int) {
		t.Helper()
		resS, err := sess.Step(genS.Next(8))
		if err != nil {
			t.Fatalf("session step %d: %v", i, err)
		}
		resR, err := ref.Step(genR.Next(8))
		if err != nil {
			t.Fatalf("reference step %d: %v", i, err)
		}
		if resS.Loss != resR.Loss {
			t.Fatalf("step %d on %s: session loss %v, reference %v", i, planShape(sess.Plan()), resS.Loss, resR.Loss)
		}
		if sess.Engine() != eng {
			t.Fatalf("step %d: the session replaced its engine", i)
		}
	}
	// replanRef moves the reference as the session should have moved.
	replanRef := func(ev cluster.Event) {
		t.Helper()
		if cl, err = cl.Apply(ev); err != nil {
			t.Fatal(err)
		}
		ranking, _ = rt.Rerank(cl, model, space)
		if best, err = firstFeasible(ranking); err != nil {
			t.Fatal(err)
		}
		next, err := best.Plan.Engine(42, nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := next.Restore(ref.Snapshot()); err != nil {
			t.Fatal(err)
		}
		ref = next
	}

	step(0)
	sess.FailNext(0, 1)
	replanRef(cluster.Event{Kind: cluster.DeviceLeave, Dev: 0})
	step(1)
	step(2)
	sess.Notify(cluster.Event{Kind: cluster.DeviceJoin, Dev: 1})
	replanRef(cluster.Event{Kind: cluster.DeviceJoin, Dev: 1})
	step(3)

	reps := sess.Reports()
	if len(reps) != 2 || reps[0].Trigger != "failure" || reps[1].Trigger != "event" {
		t.Fatalf("replan history %+v, want a failure then an event", reps)
	}
	if from, to := planShape(reps[0].From), planShape(reps[0].To); from != "dapple P3 D2" || to != "dapple P4 D1" {
		t.Fatalf("failure replan moved %s → %s, want dapple P3 D2 → dapple P4 D1", from, to)
	}
	if got, want := planShape(reps[1].To), planShape(best.Plan); got != want {
		t.Fatalf("join replan moved to %s, reference picked %s", got, want)
	}
	if !tensorsEqual(sess.Engine().Snapshot(), ref.Snapshot()) {
		t.Fatal("session parameters diverged from the rebuilt reference")
	}
}

// retryAllocs is what one warm Step of the elastic grid's dapple P2 D2
// allocates: the DP 1 dapple budget the runtime pins (1177, of which the
// Result and its two slices are 3) for two replicas. headroom is the
// runtime pin's, for the Go runtime's parking structures.
const retryAllocs, headroom = 2*(1177-3) + 3, 4

// TestElasticSessionRetryIsWarm: the step a session retries after a
// failure runs on the engine the failed step warmed, reshaped in place —
// here onto the same dapple P2 D2 — so it allocates what a warm step does
// and no buffer; a rebuilt engine's cold retry costs about twice that. The
// pin is on the least of three sessions: now and then the Go runtime
// refills its parking caches during one step (a dozen objects more).
func TestElasticSessionRetryIsWarm(t *testing.T) {
	least := uint64(math.MaxUint64)
	for range 3 {
		least = min(least, retryAllocsOnce(t))
	}
	if least > retryAllocs+headroom {
		t.Fatalf("the retried step allocated %d objects, a warm one %d", least, retryAllocs)
	}
}

// retryAllocsOnce trains a fresh session two steps, fails the third and
// counts what the retry of that batch allocates.
func retryAllocsOnce(t *testing.T) uint64 {
	t.Helper()
	model := elasticModel()
	gen := data.NewGenerator(11, model.Vocab, model.SeqLen)
	sess, err := NewElasticSession(nil, cluster.TACC(6), model, ElasticOptions{Space: elasticSpace(), Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := sess.Step(gen.Next(8)); err != nil {
			t.Fatal(err)
		}
	}
	// Step's failure path, taken apart so the retry can be measured alone.
	batch := gen.Next(8)
	sess.FailNext(0, 0)
	_, err = sess.eng.Step(batch)
	var de *runtime.DeviceError
	if !errors.As(err, &de) {
		t.Fatalf("injected failure gave %v", err)
	}
	if err := sess.dropFailed(de); err != nil {
		t.Fatal(err)
	}
	if got := planShape(sess.Plan()); got != "dapple P2 D2" {
		t.Fatalf("replanned onto %s, want dapple P2 D2", got)
	}
	var before, after goruntime.MemStats
	goruntime.ReadMemStats(&before)
	_, err = sess.eng.Step(batch)
	goruntime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	return after.Mallocs - before.Mallocs
}

// TestElasticSessionFailedReplanBlocksStep: on four devices every plan of
// the elastic grid needs all four, so losing one leaves no feasible plan.
// Whether the loss is notified or a mid-step failure, that Step and every
// later one must fail rather than train on the departed device, until a
// join makes a plan feasible again. An event the cluster cannot apply is
// dropped and blocks nothing.
func TestElasticSessionFailedReplanBlocksStep(t *testing.T) {
	model := elasticModel()
	for _, trigger := range []string{"event", "failure"} {
		gen := data.NewGenerator(5, model.Vocab, model.SeqLen)
		sess, err := NewElasticSession(nil, cluster.TACC(4), model, ElasticOptions{Space: elasticSpace(), Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sess.Step(gen.Next(8)); err != nil {
			t.Fatal(err)
		}
		if trigger == "event" {
			sess.Notify(cluster.Event{Kind: cluster.DeviceLeave, Dev: 3})
		} else {
			sess.FailNext(0, 0)
		}
		for i := 0; i < 3; i++ {
			if _, err := sess.Step(gen.Next(8)); err == nil {
				t.Fatalf("%s: step %d after the loss trained on %s with %d devices, want an error",
					trigger, i, planShape(sess.Plan()), sess.Cluster().N())
			}
		}
		sess.Notify(cluster.Event{Kind: cluster.DeviceJoin, Dev: 0})
		if _, err := sess.Step(gen.Next(8)); err != nil {
			t.Fatalf("%s: the join did not make a plan feasible: %v", trigger, err)
		}
		if reps := sess.Reports(); len(reps) != 1 || reps[0].Trigger != "event" || reps[0].Event.Kind != cluster.DeviceJoin {
			t.Fatalf("%s: replan history %+v, want one replan for the join", trigger, reps)
		}
		if n := sess.Cluster().N(); n != 4 {
			t.Fatalf("%s: session cluster has %d devices after the join, want 4", trigger, n)
		}

		sess.Notify(cluster.Event{Kind: cluster.DeviceLeave, Dev: 99})
		if _, err := sess.Step(gen.Next(8)); err == nil {
			t.Fatalf("%s: an out-of-range leave applied", trigger)
		}
		if _, err := sess.Step(gen.Next(8)); err != nil {
			t.Fatalf("%s: an unappliable event blocked the next step: %v", trigger, err)
		}
	}
}
