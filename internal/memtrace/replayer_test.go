package memtrace

import (
	"math"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/nn"
	"repro/internal/sched"
)

// TestReplayerReuseMatchesFreshRuns reuses one Replayer across ascending
// and descending shapes and several schemes, comparing every field against
// a fresh Run — the arena re-growth correctness check for the memory
// executor.
func TestReplayerReuseMatchesFreshRuns(t *testing.T) {
	cfg := nn.BERTStyle()
	shapes := [][2]int{{2, 4}, {8, 16}, {4, 4}, {2, 2}}
	r := NewReplayer()
	for _, scheme := range []string{"gpipe", "dapple", "chimera", "hanayo-w2"} {
		for _, shape := range shapes {
			p, b := shape[0], shape[1]
			s, err := sched.ByName(scheme, p, b)
			if err != nil {
				t.Fatalf("%s P=%d B=%d: %v", scheme, p, b, err)
			}
			fresh, err := Run(s, cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := r.Run(s, cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			for d := 0; d < p; d++ {
				if reused.PeakActs[d] != fresh.PeakActs[d] || reused.PeakBytes[d] != fresh.PeakBytes[d] {
					t.Fatalf("%s P=%d B=%d device %d: reused peaks (%d, %g) != fresh (%d, %g)",
						scheme, p, b, d, reused.PeakActs[d], reused.PeakBytes[d],
						fresh.PeakActs[d], fresh.PeakBytes[d])
				}
				if len(reused.Curves[d]) != len(fresh.Curves[d]) {
					t.Fatalf("%s P=%d B=%d device %d: curve length %d != %d",
						scheme, p, b, d, len(reused.Curves[d]), len(fresh.Curves[d]))
				}
				for i := range fresh.Curves[d] {
					if reused.Curves[d][i] != fresh.Curves[d][i] {
						t.Fatalf("%s P=%d B=%d device %d sample %d: %+v != %+v",
							scheme, p, b, d, i, reused.Curves[d][i], fresh.Curves[d][i])
					}
				}
			}
		}
	}
}

// TestReplayerAllocsZero pins the steady-state allocation count of the
// memory replay at zero once the arenas are warm.
func TestReplayerAllocsZero(t *testing.T) {
	cfg := nn.BERTStyle()
	s, err := sched.Hanayo(8, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplayer()
	if _, err := r.Run(s, cfg, 2); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Run(s, cfg, 2); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Replayer.Run allocates %.1f times per run, want 0", allocs)
	}
}

// TestRunBudgetEarlyExit drives the budgeted replay: a generous budget
// replays to completion; a budget below the known peak stops early with
// exceeded=true, strictly shorter curves, and an observed peak that
// already proves the violation.
func TestRunBudgetEarlyExit(t *testing.T) {
	cfg := nn.BERTStyle()
	s, err := sched.GPipe(4, 8) // GPipe piles up all B activations: easy to violate
	if err != nil {
		t.Fatal(err)
	}
	full, err := Run(s, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	peak := 0.0
	fullSamples := 0
	for d := range full.PeakBytes {
		peak = math.Max(peak, full.PeakBytes[d])
		fullSamples += len(full.Curves[d])
	}

	r := NewReplayer()
	loose := make([]float64, s.P)
	for d := range loose {
		loose[d] = peak * 2
	}
	res, exceeded, err := r.RunBudget(s, cfg, 2, loose)
	if err != nil {
		t.Fatal(err)
	}
	if exceeded {
		t.Fatal("a budget above the peak must not trip the early exit")
	}
	for d := range full.PeakBytes {
		if res.PeakBytes[d] != full.PeakBytes[d] {
			t.Fatalf("device %d: budgeted peak %g != unbudgeted %g", d, res.PeakBytes[d], full.PeakBytes[d])
		}
	}

	tight := make([]float64, s.P)
	for d := range tight {
		tight[d] = peak / 2
	}
	res, exceeded, err = r.RunBudget(s, cfg, 2, tight)
	if err != nil {
		t.Fatal(err)
	}
	if !exceeded {
		t.Fatal("a budget at half the peak must trip the early exit")
	}
	violated := false
	curveShowsViolation := false
	partialSamples := 0
	for d := range res.PeakBytes {
		partialSamples += len(res.Curves[d])
		if res.PeakBytes[d] > tight[d] {
			violated = true
			// The documented contract: the partial curve includes the
			// violating forward's over-budget sample.
			for _, smp := range res.Curves[d] {
				if smp.Bytes > tight[d] {
					curveShowsViolation = true
				}
			}
		}
	}
	if !violated {
		t.Fatal("the partial result must show the violating device above its budget")
	}
	if !curveShowsViolation {
		t.Fatal("the violating device's curve must include the over-budget sample")
	}
	if partialSamples >= fullSamples {
		t.Fatalf("early exit replayed %d samples, full replay has %d — nothing was skipped",
			partialSamples, fullSamples)
	}

	// The Replayer stays usable after an aborted replay.
	again, err := r.Run(s, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	for d := range full.PeakBytes {
		if again.PeakBytes[d] != full.PeakBytes[d] {
			t.Fatalf("post-abort replay diverges on device %d: %g != %g",
				d, again.PeakBytes[d], full.PeakBytes[d])
		}
	}
}

// TestRunBudgetValidation covers the short-budget error path.
func TestRunBudgetValidation(t *testing.T) {
	s, err := sched.DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewReplayer().RunBudget(s, nn.BERTStyle(), 2, make([]float64, 2)); err == nil {
		t.Fatal("a budget shorter than P must be rejected")
	}
}

// TestBudgetMatchesMemmodelUnits asserts the replay's byte unit is exactly
// memmodel.StageActBytes — the invariant that lets a caller derive budgets
// from capacity minus memmodel.Weights.
func TestBudgetMatchesMemmodelUnits(t *testing.T) {
	cfg := nn.BERTStyle()
	s, err := sched.Hanayo(4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(s, cfg, 2)
	if err != nil {
		t.Fatal(err)
	}
	unit := memmodel.StageActBytes(s, cfg, 2)
	for d := range res.PeakBytes {
		want := float64(res.PeakActs[d]) * unit
		if math.Abs(res.PeakBytes[d]-want) > 1e-6*want {
			t.Fatalf("device %d: peak bytes %g != peak acts %d × stage bytes %g",
				d, res.PeakBytes[d], res.PeakActs[d], unit)
		}
	}
}
