// Fault-aware tuning: the paper ranks schemes on uniform clusters, but
// real machines run hot, throttle and die. This example asks the three
// operational questions the fault model answers:
//
//  1. Static heterogeneity — a known-slow device: sweep the degraded
//     ":straggler" preset and compare its winner against the healthy
//     cluster's. On FC the top-1 flips (Hanayo → DAPPLE), so the right
//     move is re-tuning, not rescaling the healthy numbers.
//  2. Dynamic degradation — a mid-run slowdown: inject a FaultPlan and
//     let the sweep re-rank under it. Degradation-only plans keep the
//     analytic lower bound a proven floor, so bound-and-prune search
//     stays exact.
//  3. Failure — a device dies: the cell becomes a deterministic
//     infeasible verdict carrying a restart-from-checkpoint recovery
//     estimate, instead of an error or a panic.
package main

import (
	"fmt"
	"log"

	hanayo "repro"
)

func main() {
	model := hanayo.BERTStyle()
	space := hanayo.SearchSpace{B: 8, MicroRows: 2}

	// 1. Healthy vs straggler preset (device 0 at half speed).
	for _, name := range []string{"fc", "fc:straggler"} {
		cl, err := hanayo.ClusterByName(name, 8)
		if err != nil {
			log.Fatal(err)
		}
		best, ok := hanayo.Best(hanayo.AutoTune(cl, model, space))
		if !ok {
			log.Fatalf("%s: no feasible configuration", name)
		}
		fmt.Printf("%-14s best: %-10s P=%d D=%d  %.2f seq/s\n",
			name, best.Plan.Scheme, best.Plan.P, best.Plan.D, best.Throughput)
	}

	// An ad-hoc perturbation, the CLI way: the same spec string the
	// -straggler flags accept.
	cl, err := hanayo.ClusterByName("fc", 8)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := hanayo.ApplyStraggler(cl, "3:0.8"); err != nil {
		log.Fatal(err)
	}

	// 2. A timed slowdown: device 1 drops to 60% shortly into the run.
	degraded := space
	degraded.Faults = &hanayo.FaultPlan{Events: []hanayo.FaultEvent{
		hanayo.SlowDown(1, 0.6, 0.1),
	}}
	best, ok := hanayo.Best(hanayo.AutoTune(cl, model, degraded))
	if !ok {
		log.Fatal("degraded sweep: no feasible configuration")
	}
	fmt.Printf("%-14s best: %-10s P=%d D=%d  %.2f seq/s\n",
		"fc+slowdown", best.Plan.Scheme, best.Plan.P, best.Plan.D, best.Throughput)

	// 3. A device failure: simulate one plan under a kill event and read
	// the deterministic verdict a sweep would cache for this cell.
	plan := hanayo.Plan{Scheme: "hanayo-w2", Cluster: cl, Model: model,
		P: 4, D: 2, B: 8, MicroRows: 2}
	e, err := plan.Evaluate()
	if err != nil {
		log.Fatal(err)
	}
	ref := e.Sim
	plan.Faults = &hanayo.FaultPlan{
		Events:      []hanayo.FaultEvent{hanayo.Fail(2, 0.4*ref.Makespan)},
		RestartCost: 2 * ref.Makespan,
	}
	if e, err = plan.Evaluate(); err != nil {
		log.Fatal(err)
	}
	r := e.Sim
	fmt.Printf("\nfailure injection on hanayo-w2 P=4 (healthy makespan %.2fs):\n", ref.Makespan)
	fmt.Printf("  device %d dies at t=%.2fs → infeasible, recovery estimate %.2fs\n",
		r.FailedDevice, r.FailTime, r.Recovery)
}
