package runtime

import (
	"slices"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/memmodel"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// TestCheckpointedPipelineMatchesSerial: activation checkpointing must not
// change gradients, only memory.
func TestCheckpointedPipelineMatchesSerial(t *testing.T) {
	cfg := tinyCfg()
	s, err := sched.Hanayo(4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{
		Schedule:     s,
		Model:        cfg,
		DP:           1,
		Seed:         42,
		Checkpoint:   true,
		NewOptimizer: func() nn.Optimizer { return nopOpt{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := data.NewGenerator(7, cfg.Vocab, cfg.SeqLen)
	batch := gen.Next(s.B)
	res, err := eng.Step(batch)
	if err != nil {
		t.Fatal(err)
	}
	micros := data.SplitMicro(batch, s.B)
	refParams, refLoss := serialGrads(t, cfg, 42, micros)
	if diff := res.Loss - refLoss; diff > 1e-5 || diff < -1e-5 {
		t.Fatalf("loss %g vs %g", res.Loss, refLoss)
	}
	got := eng.Params()
	for i, ref := range refParams {
		if d := tensor.MaxAbsDiff(got[i].G, ref.G); d > 2e-4 {
			t.Fatalf("param %d grad diff %g", i, d)
		}
	}
}

func TestPeakActBytesReported(t *testing.T) {
	cfg := tinyCfg()
	gp, err := sched.GPipe(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	dp, err := sched.DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	run := func(s *sched.Schedule) []int64 {
		eng, err := New(Config{Schedule: s, Model: cfg, DP: 1, Seed: 1,
			NewOptimizer: func() nn.Optimizer { return nopOpt{} }})
		if err != nil {
			t.Fatal(err)
		}
		gen := data.NewGenerator(3, cfg.Vocab, cfg.SeqLen)
		res, err := eng.Step(gen.Next(4))
		if err != nil {
			t.Fatal(err)
		}
		return res.PeakActBytes
	}
	gpk := run(gp)
	dpk := run(dp)
	for d, v := range gpk {
		if v <= 0 {
			t.Fatalf("gpipe device %d peak %d", d, v)
		}
	}
	// 1F1B's last device holds one in-flight activation, GPipe holds B.
	if dpk[3] >= gpk[3] {
		t.Fatalf("dapple last-device peak %d not below gpipe %d", dpk[3], gpk[3])
	}
	// And 1F1B shows the unbalanced profile: device 0 above device 3.
	if dpk[0] <= dpk[3] {
		t.Fatalf("dapple profile not decreasing: %v", dpk)
	}
}

// TestActivationPeaksAgreeAcrossExecutors holds the three executors to one
// counting rule, sched.Schedule.PeakActs: on every device of every scheme
// over a (P, B, DP, checkpointing) grid, the count the real-tensor workers
// keep as they run equals the scan, which equals the peak of the
// simulator's timeline, and memmodel.AnalyticPeakActs never falls below
// them. Each engine's per-device compute order — kind, micro-batch and
// stage of every Record — equals the simulator's too: every executor walks
// each list in order, and this pins that construction. Cells whose
// schedule does not exist, or needs more stages than tinyCfg's 16 units,
// are skipped; the count of engines run is pinned.
func TestActivationPeaksAgreeAcrossExecutors(t *testing.T) {
	cfg := tinyCfg()
	gen := data.NewGenerator(3, cfg.Vocab, cfg.SeqLen)
	engines := 0
	for _, scheme := range allSchemes {
		for _, p := range []int{2, 4} {
			for _, b := range []int{2, 4, 8} {
				s, err := sched.ByName(scheme, p, b)
				if err != nil || s.S > cfg.Layers+2 {
					continue
				}
				scan, analytic := s.PeakActs(nil), memmodel.AnalyticPeakActs(s)
				r, err := sim.Run(s, costmodel.Uniform{Tf: 1, Tb: 2, Tc: 0.05}, sim.DefaultOptions())
				if err != nil {
					t.Fatal(err)
				}
				simRecs := r.Records()
				for d := range scan {
					if tl := sim.PeakOf(sim.ActivationTimeline(r, d)); tl != scan[d] || scan[d] > analytic[d] {
						t.Errorf("%s P=%d B=%d device %d: scan %d, sim timeline %d, analytic %d", scheme, p, b, d, scan[d], tl, analytic[d])
					}
				}
				for _, dp := range []int{1, 2} {
					for _, checkpoint := range []bool{false, true} {
						eng, err := New(Config{Schedule: s, Model: cfg, DP: dp, Seed: 1, Checkpoint: checkpoint,
							NewOptimizer: func() nn.Optimizer { return nopOpt{} }})
						if err != nil {
							t.Fatal(err)
						}
						engines++
						res, err := eng.Step(gen.Next(b * dp))
						if err != nil {
							t.Fatal(err)
						}
						if !slices.Equal(res.PeakActs, scan) {
							t.Errorf("%s P=%d B=%d DP=%d checkpoint=%v: runtime peaks %v, scan %v", scheme, p, b, dp, checkpoint, res.PeakActs, scan)
						}
						for d := range simRecs {
							if !slices.EqualFunc(res.Records[d], simRecs[d], sameCompute) {
								t.Errorf("%s P=%d B=%d DP=%d checkpoint=%v device %d: runtime compute order differs from the simulator's",
									scheme, p, b, dp, checkpoint, d)
							}
						}
					}
				}
			}
		}
	}
	if engines != 228 {
		t.Fatalf("ran %d engines, want 228", engines)
	}
}

// sameCompute reports whether two Records run the same compute: kind,
// micro-batch and stage.
func sameCompute(a, b exec.Record) bool {
	return a.Action.Kind == b.Action.Kind && a.Action.Micro == b.Action.Micro && a.Action.Stage == b.Action.Stage
}

// TestGEMSTrainsCorrectly: the GEMS baseline must also match the serial
// reference (it reuses the Chimera dual-replica machinery).
func TestGEMSTrainsCorrectly(t *testing.T) {
	s, err := sched.GEMS(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkSchemeMatchesSerial(t, s, 1)
}

// TestCheckpointTrainingLoss: end-to-end training with checkpointing on.
func TestCheckpointTrainingLoss(t *testing.T) {
	cfg := nn.Tiny(6, 16, 2, 12, 6, true)
	s, err := sched.DAPPLE(3, 3)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{
		Schedule:     s,
		Model:        cfg,
		DP:           1,
		Seed:         2,
		Checkpoint:   true,
		NewOptimizer: func() nn.Optimizer { return nn.NewAdam(0.01) },
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := data.NewGenerator(9, cfg.Vocab, cfg.SeqLen)
	losses, err := eng.train(gen, 3, 20)
	if err != nil {
		t.Fatal(err)
	}
	first := (losses[0] + losses[1]) / 2
	last := (losses[len(losses)-1] + losses[len(losses)-2]) / 2
	if last >= first {
		t.Fatalf("checkpointed training did not learn: %g -> %g", first, last)
	}
}
