// BERT-style encoder training (the paper's second model family):
// bidirectional attention, trained under a wave schedule with activation
// checkpointing enabled, with the device activation curves rendered as
// sparklines from the matching simulation.
package main

import (
	"fmt"
	"log"

	hanayo "repro"
	"repro/internal/nn"
	"repro/internal/runtime"
	"repro/internal/sim"
)

func main() {
	// A miniature BERT: bidirectional (causal=false), 14 blocks so it can
	// split into the 16 stages of a 2-wave pipeline on 4 devices.
	cfg := hanayo.TinyModel(14, 16, 2, 32, 8, false)
	s, err := hanayo.HanayoWaves(4, 2, 4)
	if err != nil {
		log.Fatal(err)
	}
	eng, err := runtime.New(runtime.Config{
		Schedule:   s,
		Model:      cfg,
		DP:         1,
		Seed:       5,
		Checkpoint: true, // recompute activations in backward (§6)
		NewOptimizer: func() nn.Optimizer {
			return nn.NewScheduled(nn.NewAdam(0.02), nn.WarmupCosine{Warmup: 5, Total: 40, MinFactor: 0.1})
		},
	})
	if err != nil {
		log.Fatal(err)
	}

	gen := hanayo.NewGenerator(11, cfg.Vocab, cfg.SeqLen)
	fmt.Printf("BERT-style encoder, %s, activation checkpointing on\n", s.Scheme)
	var res *runtime.Result
	for i := 0; i < 30; i++ {
		if res, err = eng.Step(gen.Next(s.B * 2)); err != nil {
			log.Fatal(err)
		}
		if i%10 == 0 || i == 29 {
			fmt.Printf("  iter %2d  loss %.4f\n", i, res.Loss)
		}
	}
	fmt.Printf("peak boundary activations per device (bytes): %v\n", res.PeakActBytes)
	fmt.Printf("peak live activations per device: %v\n\n", res.PeakActs)

	// The same schedule's activation curves from the simulator.
	plan := hanayo.Plan{Scheme: "hanayo-w2", Cluster: hanayo.FullNVLink(4),
		Model: hanayo.BERTStyle(), P: 4, D: 1, B: 4, MicroRows: 2}
	e, err := plan.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	r := e.Sim
	fmt.Println("simulated live-activation curves (one row per device):")
	for d := 0; d < 4; d++ {
		tl := sim.ActivationTimeline(r, d)
		fmt.Printf("  P%d |%s| peak=%d\n", d, sim.Sparkline(tl, 64, r.Makespan), sim.PeakOf(tl))
	}
}
