package memtrace

import (
	"math"
	"slices"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/nn"
	"repro/internal/sched"
)

// TestReplayerReuseMatchesFreshRuns reuses one Replayer across ascending
// and descending shapes and several schemes: its peaks must equal a fresh
// Replayer's and the schedule's own scan — the storage re-growth check.
func TestReplayerReuseMatchesFreshRuns(t *testing.T) {
	cfg := nn.BERTStyle()
	r := NewReplayer()
	for _, scheme := range []string{"gpipe", "dapple", "chimera", "hanayo-w2"} {
		for _, shape := range [][2]int{{2, 4}, {8, 16}, {4, 4}, {2, 2}} {
			s, err := sched.ByName(scheme, shape[0], shape[1])
			if err != nil {
				t.Fatalf("%s P=%d B=%d: %v", scheme, shape[0], shape[1], err)
			}
			budget := make([]float64, s.P)
			fresh, _, err := NewReplayer().RunBudget(s, cfg, 2, budget)
			if err != nil {
				t.Fatal(err)
			}
			reused, _, err := r.RunBudget(s, cfg, 2, budget)
			if err != nil {
				t.Fatal(err)
			}
			if scan := s.PeakActs(nil); !slices.Equal(reused, fresh) || !slices.Equal(reused, scan) {
				t.Fatalf("%s P=%d B=%d: reused peaks %v, fresh %v, scan %v", scheme, shape[0], shape[1], reused, fresh, scan)
			}
		}
	}
}

// TestReplayerAllocsZero pins the steady-state allocation count of a
// budget check at zero once the Replayer's storage is warm.
func TestReplayerAllocsZero(t *testing.T) {
	cfg := nn.BERTStyle()
	s, err := sched.Hanayo(8, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplayer()
	budget := make([]float64, s.P)
	if _, _, err := r.RunBudget(s, cfg, 2, budget); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, _, err := r.RunBudget(s, cfg, 2, budget); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Replayer.RunBudget allocates %.1f times per run, want 0", allocs)
	}
}

// TestBudgetMatchesMemmodelUnits: the verdict counts in memmodel's unit. A
// budget of exactly the estimate's ActBytes (peak count × StageActBytes)
// passes on every device; half a stage-activation less on any one device
// trips it.
func TestBudgetMatchesMemmodelUnits(t *testing.T) {
	cfg := nn.BERTStyle()
	s, err := sched.Hanayo(4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	budget := slices.Clone(memmodel.ForSchedule(s, cfg, 2, s.PeakActs(nil)).ActBytes)
	r := NewReplayer()
	if _, exceeded, err := r.RunBudget(s, cfg, 2, budget); err != nil || exceeded {
		t.Fatalf("a budget at the peak must pass: exceeded=%v err=%v", exceeded, err)
	}
	unit := memmodel.StageActBytes(s, cfg, 2)
	for d, at := range budget {
		budget[d] = at - unit/2
		if _, exceeded, err := r.RunBudget(s, cfg, 2, budget); err != nil || !exceeded {
			t.Fatalf("device %d: half a unit under the peak must trip: exceeded=%v err=%v", d, exceeded, err)
		}
		budget[d] = at
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

// TestPeakBytesScaleWithRows doubles the micro-batch rows and expects every
// device's peak bytes to grow (StageActBytes is increasing in rows): a
// budget that holds a device's rows=1 peak exactly is exceeded at rows=2.
func TestPeakBytesScaleWithRows(t *testing.T) {
	cfg := nn.BERTStyle()
	s, err := sched.DAPPLE(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	r := NewReplayer()
	small := slices.Clone(memmodel.ForSchedule(s, cfg, 1, s.PeakActs(nil)).ActBytes)
	if _, exceeded, err := r.RunBudget(s, cfg, 1, small); err != nil || exceeded {
		t.Fatalf("rows=1 must fit its own peak: exceeded=%v err=%v", exceeded, err)
	}
	budget := make([]float64, s.P)
	for d := range budget {
		budget[d] = math.Inf(1)
	}
	for d := range small {
		budget[d] = small[d]
		if _, exceeded, err := r.RunBudget(s, cfg, 2, budget); err != nil || !exceeded {
			t.Fatalf("device %d: rows=2 peak not above rows=1 peak %g: exceeded=%v err=%v",
				d, small[d], exceeded, err)
		}
		budget[d] = math.Inf(1)
	}
}

// TestRunValidatesRows rejects non-positive rows.
func TestRunValidatesRows(t *testing.T) {
	s, err := sched.DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := NewReplayer().RunBudget(s, nn.BERTStyle(), 0, make([]float64, s.P)); err == nil {
		t.Fatal("rows=0 must fail")
	}
}
