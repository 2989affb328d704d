// AutoTune (the paper's §5.3 scenario): search (P, D, scheme, waves) on a
// 32-GPU cluster for the configuration with the best simulated throughput
// that fits memory, exactly like the paper's Fig 10 sweep — served through
// hanayo.Tuner, the steady-state tuning service: the first sweep pays for
// its simulations, a repeated sweep (a calibration loop, another user
// tuning the same model) is answered from the cross-sweep evaluation
// cache, and OOM cells are pruned on their activation peaks before the
// timing model ever runs.
package main

import (
	"fmt"
	"log"
	"runtime"
	"time"

	hanayo "repro"
)

func main() {
	cl := hanayo.TACC(32)
	model := hanayo.BERTStyle()
	fmt.Printf("searching schemes × (P, D) × waves for %s on %d×%s (%d workers)\n\n",
		model.Name, cl.N(), cl.Devices[0].Name, runtime.NumCPU())

	space := hanayo.SearchSpace{
		PD:        [][2]int{{8, 4}, {16, 2}, {32, 1}},
		Waves:     []int{1, 2, 4},
		B:         16,
		MicroRows: 2,
		// One sweep worker per CPU; the candidate ranking is identical to
		// the serial sweep (Workers: 1). Each feasible candidate costs one
		// simulation, shared across candidates that differ only in D.
		Workers: runtime.NumCPU(),
		// Memory-replay pruning: OOM cells never reach the timing model.
		Prune: true,
	}

	// The service is built once and shared: it owns a bounded pool of
	// reusable simulation arenas and the cross-sweep evaluation cache.
	tuner := hanayo.NewTuner(hanayo.TunerOptions{})

	start := time.Now()
	cands := tuner.AutoTune(cl, model, space)
	cold := time.Since(start)

	fmt.Printf("%-14s %4s %4s %10s %8s\n", "scheme", "P", "D", "seq/s", "peakGB")
	for _, c := range cands {
		thr := fmt.Sprintf("%.1f", c.Throughput)
		if c.OOM {
			thr = "OOM"
			if c.Pruned {
				thr = "OOM*" // pruned: feasibility decided without a simulation
			}
		}
		fmt.Printf("%-14s %4d %4d %10s %8.1f\n", c.Plan.Scheme, c.Plan.P, c.Plan.D, thr, c.PeakGB)
	}

	best, ok := hanayo.Best(cands)
	if !ok {
		log.Fatal("no feasible configuration")
	}
	fmt.Printf("\nwinner: %s with P=%d, D=%d at %.1f sequences/s\n",
		best.Plan.Scheme, best.Plan.P, best.Plan.D, best.Throughput)

	// The same request again — every evaluation is a cache hit.
	start = time.Now()
	tuner.AutoTune(cl, model, space)
	warm := time.Since(start)
	fmt.Printf("swept %d candidates in %v cold, %v from the cross-sweep cache (%d entries)\n",
		len(cands), cold.Round(time.Millisecond), warm.Round(time.Microsecond), tuner.CacheLen())
}
