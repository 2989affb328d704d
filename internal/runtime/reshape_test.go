package runtime

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/sched"
)

// reshapeShape is one engine shape a reshape moves between.
type reshapeShape struct {
	scheme string
	p, dp  int
}

func (s reshapeShape) String() string { return fmt.Sprintf("%s/P%d/DP%d", s.scheme, s.p, s.dp) }

// reshapeShapes crosses one-copy 1F1B, fill-drain, waves, two weight copies
// and the split backward with P 2 and 4 and DP 1 and 2.
func reshapeShapes() []reshapeShape {
	var out []reshapeShape
	for _, scheme := range []string{"dapple", "gpipe", "hanayo-w2", "chimera", "zbh1"} {
		for _, p := range []int{2, 4} {
			for _, dp := range []int{1, 2} {
				out = append(out, reshapeShape{scheme, p, dp})
			}
		}
	}
	return out
}

// reshapeRows splits into B·DP micro-batches for B = 4 and either DP.
const reshapeRows = 8

// momentumSGD is stateful, so a reshape that kept an optimizer instead of
// building a fresh one, as New does, would show in the losses.
func momentumSGD() nn.Optimizer { return nn.NewSGD(0.05, 0.9) }

func buildShape(t *testing.T, s reshapeShape, checkpoint bool) *Engine {
	t.Helper()
	eng, err := New(Config{Schedule: mustSched(t, s.scheme, s.p, 4), Model: tinyCfg(), DP: s.dp,
		Seed: 42, NewOptimizer: momentumSGD, Checkpoint: checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

func mustStep(t *testing.T, eng *Engine, batch *data.Batch) float64 {
	t.Helper()
	res, err := eng.Step(batch)
	if err != nil {
		t.Fatal(err)
	}
	return res.Loss
}

func fixedBatches(n int) []*data.Batch {
	cfg := tinyCfg()
	gen := data.NewGenerator(7, cfg.Vocab, cfg.SeqLen)
	out := make([]*data.Batch, n)
	for i := range out {
		out[i] = gen.Next(reshapeRows)
	}
	return out
}

// pairWalk lists 0…n−1 so that every ordered pair, (a, a) included, occurs
// exactly once as neighbours: the order-2 de Bruijn sequence (its Lyndon
// words in lexicographic order), closed into a path.
func pairWalk(n int) []int {
	var walk []int
	for a := 0; a < n; a++ {
		walk = append(walk, a)
		for b := a + 1; b < n; b++ {
			walk = append(walk, a, b)
		}
	}
	return append(walk, walk[0])
}

// TestReshapeMatchesRebuild: Reshape is "New + Restore(Snapshot())" bit for
// bit, over every ordered pair of shapes, with checkpointing off and on.
// One engine walks all the pairs, as a long-lived session's does. Before
// each transition it has trained two healthy steps on the source shape;
// then it loses a device mid-step, and after AbortReset it is reshaped.
// The reference is a new engine of the target shape with the snapshot
// restored. Both retry the failed batch and train one more: the losses and
// the parameters must agree to the bit. A further healthy pass of the
// reshaped engine's workers must return every buffer it used.
func TestReshapeMatchesRebuild(t *testing.T) {
	batches := fixedBatches(3)
	shapes := reshapeShapes()
	walk := pairWalk(len(shapes))
	for _, checkpoint := range []bool{false, true} {
		t.Run(fmt.Sprintf("checkpoint=%v", checkpoint), func(t *testing.T) {
			t.Parallel()
			eng := buildShape(t, shapes[walk[0]], checkpoint)
			mustStep(t, eng, batches[1])
			mustStep(t, eng, batches[2])
			for i := 1; i < len(walk); i++ {
				from, to := shapes[walk[i-1]], shapes[walk[i]]
				name := fmt.Sprintf("%v→%v", from, to)
				eng.InjectFailure(from.p-1, 1)
				if _, err := eng.Step(batches[0]); !errors.Is(err, ErrDeviceFailed) {
					t.Fatalf("%s: injected failure gave %v", name, err)
				}
				eng.AbortReset()

				ref := buildShape(t, to, checkpoint)
				if err := ref.Restore(eng.Snapshot()); err != nil {
					t.Fatal(err)
				}
				if err := eng.Reshape(mustSched(t, to.scheme, to.p, 4), to.dp); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				for _, b := range batches[:2] {
					got, want := mustStep(t, eng, b), mustStep(t, ref, b)
					if math.Float64bits(got) != math.Float64bits(want) || math.IsNaN(got) {
						t.Fatalf("%s: loss %v after Reshape, %v after New + Restore", name, got, want)
					}
				}
				if !snapshotsEqual(eng.Snapshot(), ref.Snapshot()) {
					t.Fatalf("%s: parameters after Reshape differ from New + Restore", name)
				}
				runWorkers(t, eng, batches[2])
				checkNothingToSweep(t, eng, name)
			}
		})
	}
}

// TestReshapeRejectsWithoutChange: a Reshape that fails validation returns
// an error and leaves the engine exactly as it was — it goes on training
// bit-identically to a twin that was never asked.
func TestReshapeRejectsWithoutChange(t *testing.T) {
	shape := reshapeShape{"hanayo-w2", 2, 2}
	eng, twin := buildShape(t, shape, false), buildShape(t, shape, false)
	batches := fixedBatches(3)
	mustStep(t, eng, batches[0])
	mustStep(t, twin, batches[0])

	broken := mustSched(t, "dapple", 2, 4)
	broken.Lists[0] = broken.Lists[0][:len(broken.Lists[0])-1]
	for _, bad := range []struct {
		name string
		sch  *sched.Schedule
		dp   int
	}{
		{"stages above the model's units", mustSched(t, "hanayo-w4", 4, 4), 1}, // S = 32 > 16
		{"invalid schedule", broken, 1},
		{"dp < 1", mustSched(t, "dapple", 2, 4), 0},
		{"nil schedule", nil, 1},
	} {
		if err := eng.Reshape(bad.sch, bad.dp); err == nil {
			t.Fatalf("Reshape accepted %s", bad.name)
		}
	}
	for _, b := range batches[1:] {
		if got, want := mustStep(t, eng, b), mustStep(t, twin, b); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("loss %v after rejected reshapes, %v untouched", got, want)
		}
	}
	if !snapshotsEqual(eng.Snapshot(), twin.Snapshot()) {
		t.Fatal("rejected reshapes changed the parameters")
	}
}

// pooled sums the workspace counts of every worker of the engine.
func pooled(eng *Engine) (made, free int) {
	for _, rep := range eng.replicas {
		for _, w := range rep.workers {
			m, f := w.ws.Count()
			made, free = made+m, free+f
		}
	}
	return made, free
}

// TestAbortResetRefillsPools: an abort can catch a payload after its
// receiver pooled it but before the matching one came back, leaving the
// sender's free list short and the receiver's long; which ones depends on
// how far each device got. The test builds that state outright — every free
// activation buffer of device 0 moved to device 1 — and AbortReset must
// refill device 0 to what the last flush left, so the next step makes no
// tensor.
func TestAbortResetRefillsPools(t *testing.T) {
	eng := buildShape(t, reshapeShape{"dapple", 2, 1}, false)
	batches := fixedBatches(3)
	mustStep(t, eng, batches[0])
	mustStep(t, eng, batches[1])
	cfg := tinyCfg()
	act := []int{reshapeRows / eng.sch.B, cfg.SeqLen, cfg.Hidden}
	sender, receiver := eng.replicas[0].workers[0].ws, eng.replicas[0].workers[1].ws
	for {
		made, _ := sender.Count()
		x := sender.Get(act...)
		if m, _ := sender.Count(); m > made { // the list is empty: x is new
			sender.Put(x)
			break
		}
		receiver.Put(x)
	}
	eng.AbortReset()
	made, _ := pooled(eng)
	mustStep(t, eng, batches[2])
	if m, _ := pooled(eng); m != made {
		t.Fatalf("the step after AbortReset made %d tensors", m-made)
	}
}

// TestReshapeFoldsDroppedWorkspaces: a P 4 → 2 reshape drops devices 2 and
// 3, whose tensors also wait in the survivors' free lists (every payload
// changes owner). The survivors take over the dropped workspaces, so no
// buffer is lost and every pooled tensor is still one a live workspace
// sweeps — also after an abort–retry cycle on the new shape, whose retry
// makes no tensor and trains exactly like an engine built for the shape.
func TestReshapeFoldsDroppedWorkspaces(t *testing.T) {
	from, to := reshapeShape{"dapple", 4, 1}, reshapeShape{"dapple", 2, 1}
	eng, base := buildShape(t, from, false), buildShape(t, from, false)
	batches := fixedBatches(5)
	for _, b := range batches[:2] {
		mustStep(t, eng, b)
		mustStep(t, base, b)
	}
	made, free := pooled(eng)
	if made != free {
		t.Fatalf("after a healthy step %d tensors made, %d pooled", made, free)
	}
	if err := eng.Reshape(mustSched(t, to.scheme, to.p, 4), to.dp); err != nil {
		t.Fatal(err)
	}
	if m, f := pooled(eng); m != made || f != free {
		t.Fatalf("reshape kept %d made / %d pooled of %d / %d", m, f, made, free)
	}
	ref := buildShape(t, to, false)
	if err := ref.Restore(base.Snapshot()); err != nil {
		t.Fatal(err)
	}
	for _, b := range batches[2:4] {
		if got, want := mustStep(t, eng, b), mustStep(t, ref, b); got != want {
			t.Fatalf("loss %v after the reshape, %v on a new engine", got, want)
		}
	}

	eng.InjectFailure(1, 2)
	if _, err := eng.Step(batches[4]); !errors.Is(err, ErrDeviceFailed) {
		t.Fatalf("injected failure gave %v", err)
	}
	eng.AbortReset()
	made, free = pooled(eng)
	if made != free {
		t.Fatalf("after AbortReset %d tensors made by live workspaces, %d pooled", made, free)
	}
	if got, want := mustStep(t, eng, batches[4]), mustStep(t, ref, batches[4]); got != want {
		t.Fatalf("retried loss %v, %v on an engine that never failed", got, want)
	}
	if m, _ := pooled(eng); m != made {
		t.Fatalf("the retried step made %d tensors", m-made)
	}
	if !snapshotsEqual(eng.Snapshot(), ref.Snapshot()) {
		t.Fatal("retried step diverged from an engine that never failed")
	}
}
