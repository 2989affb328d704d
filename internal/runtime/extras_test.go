package runtime

import (
	"testing"

	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/sched"
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
