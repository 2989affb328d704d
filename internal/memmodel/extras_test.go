package memmodel

import (
	"testing"

	"repro/internal/nn"
	"repro/internal/sched"
)

func TestZeROBytesPerParam(t *testing.T) {
	if ZeROBytesPerParam(1) != 16 {
		t.Fatalf("no sharding: %g", ZeROBytesPerParam(1))
	}
	// dp=4: 4 + 12/4 = 7 bytes/param.
	if got := ZeROBytesPerParam(4); got != 7 {
		t.Fatalf("dp=4: %g", got)
	}
	// Monotone decreasing in dp.
	prev := ZeROBytesPerParam(1)
	for dp := 2; dp <= 16; dp *= 2 {
		cur := ZeROBytesPerParam(dp)
		if cur >= prev {
			t.Fatalf("dp=%d: %g not below %g", dp, cur, prev)
		}
		prev = cur
	}
}

func TestZeROShrinksWeights(t *testing.T) {
	cfg := nn.BERTStyle()
	s, err := sched.Hanayo(8, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	peaks := AnalyticPeakActs(s)
	plain := ForScheduleOpts(s, cfg, 2, peaks, Options{})
	zero := ForScheduleOpts(s, cfg, 2, peaks, Options{ZeRODP: 4})
	if zero.WeightBytes[0] >= plain.WeightBytes[0] {
		t.Fatal("ZeRO did not shrink weight state")
	}
	// Activations untouched.
	if zero.ActBytes[0] != plain.ActBytes[0] {
		t.Fatal("ZeRO must not change activations")
	}
	// Ratio ≈ 7/16.
	r := zero.WeightBytes[0] / plain.WeightBytes[0]
	if r < 0.42 || r > 0.46 {
		t.Fatalf("ZeRO weight ratio %g, want ≈0.4375", r)
	}
}

func TestCheckpointShrinksActivations(t *testing.T) {
	cfg := nn.BERTStyle()
	s, err := sched.DAPPLE(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	peaks := AnalyticPeakActs(s)
	plain := ForScheduleOpts(s, cfg, 2, peaks, Options{})
	ckpt := ForScheduleOpts(s, cfg, 2, peaks, Options{Checkpoint: true})
	if ckpt.ActBytes[0] >= plain.ActBytes[0]/5 {
		t.Fatalf("checkpointing saved too little: %g vs %g", ckpt.ActBytes[0], plain.ActBytes[0])
	}
	if ckpt.WeightBytes[0] != plain.WeightBytes[0] {
		t.Fatal("checkpointing must not change weights")
	}
}
