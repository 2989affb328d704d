// Custom schedule: the paper's runtime is decoupled from the scheduling
// algorithm (§4.1) — users can write their own scheduler as long as the
// action lists validate. This example hand-writes a 2-device alternating
// schedule, validates it, times it in the simulator, and trains with it.
package main

import (
	"fmt"
	"log"
	"os"

	hanayo "repro"
	"repro/internal/nn"
	"repro/internal/sched"
)

// buildZigZag constructs a custom 2-device, 2-stage pipeline where the two
// micro-batches are processed strictly alternately (a deliberately naive
// scheme — the point is the framework, not the schedule).
func buildZigZag(b int) *hanayo.Schedule {
	m := sched.StraightMapping(2)
	lists := make([][]sched.Action, 2)
	for mi := int32(0); mi < int32(b); mi++ {
		// Device 0: F(mi,0), send, later recv grad, B(mi,0).
		lists[0] = append(lists[0],
			sched.Action{Kind: sched.OpForward, Micro: mi, Stage: 0, Peer: -1},
			sched.Action{Kind: sched.OpSendAct, Micro: mi, Stage: 1, Peer: 1},
		)
		// Device 1: recv, F(mi,1), B(mi,1), send grad back.
		lists[1] = append(lists[1],
			sched.Action{Kind: sched.OpRecvAct, Micro: mi, Stage: 1, Peer: 0},
			sched.Action{Kind: sched.OpForward, Micro: mi, Stage: 1, Peer: -1},
			sched.Action{Kind: sched.OpBackward, Micro: mi, Stage: 1, Peer: -1},
			sched.Action{Kind: sched.OpSendGrad, Micro: mi, Stage: 0, Peer: 0},
		)
		lists[0] = append(lists[0],
			sched.Action{Kind: sched.OpRecvGrad, Micro: mi, Stage: 0, Peer: 1},
			sched.Action{Kind: sched.OpBackward, Micro: mi, Stage: 0, Peer: -1},
		)
	}
	for d := range lists {
		lists[d] = append(lists[d],
			sched.Action{Kind: sched.OpAllReduce, Micro: -1, Stage: -1, Peer: -1},
			sched.Action{Kind: sched.OpOptimStep, Micro: -1, Stage: -1, Peer: -1})
	}
	return &hanayo.Schedule{Scheme: "zigzag", P: 2, B: b, S: 2, Mapping: m, Lists: lists}
}

func main() {
	s := buildZigZag(2)
	if err := hanayo.ValidateSchedule(s); err != nil {
		log.Fatal("custom schedule rejected: ", err)
	}
	fmt.Println("custom zigzag schedule validated")

	// Time it against the built-in DAPPLE on the same shape.
	r, err := hanayo.Simulate(s, hanayo.Uniform{Tf: 1, Tb: 2, Tc: 0.1}, hanayo.DefaultSimOptions())
	if err != nil {
		log.Fatal(err)
	}
	d, err := hanayo.DAPPLE(2, 2)
	if err != nil {
		log.Fatal(err)
	}
	rd, err := hanayo.Simulate(d, hanayo.Uniform{Tf: 1, Tb: 2, Tc: 0.1}, hanayo.DefaultSimOptions())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("zigzag makespan %.2f (bubble %.0f%%) vs dapple %.2f (bubble %.0f%%)\n",
		r.Makespan, 100*r.BubbleRatio(), rd.Makespan, 100*rd.BubbleRatio())
	hanayo.Gantt(os.Stdout, r, 60)

	// And train with it: any valid action list drives the real runtime.
	eng, err := hanayo.NewEngine(hanayo.EngineConfig{
		Schedule: s,
		Model:    hanayo.TinyModel(6, 16, 2, 32, 8, true),
		DP:       1,
		Seed:     1,
		NewOptimizer: func() nn.Optimizer {
			return nn.NewAdam(0.01)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	gen := hanayo.NewGenerator(3, 32, 8)
	for i := 0; i < 10; i++ {
		res, err := eng.Step(gen.Next(2))
		if err != nil {
			log.Fatal(err)
		}
		if i%3 == 0 || i == 9 {
			fmt.Printf("iter %2d loss %.4f\n", i, res.Loss)
		}
	}
}
