package experiments

import (
	"fmt"
	"io"
	"strings"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nn"
	"repro/internal/sim"
)

func init() {
	register("xtr02", "Fault model: best scheme vs straggler severity, failure recovery", xtr02)
}

// xtr02 is the fault-model companion to fig10: the paper ranks schemes
// on uniform clusters, so the first question a real deployment asks is
// how far that ranking survives a straggler. The table re-runs the
// full AutoTune sweep at decreasing speeds of device 0 and reports the
// winner per severity; rows marked * elect a different configuration
// than the healthy cluster — the regime where re-tuning (not just
// rescaling the paper's numbers) pays. The second half injects a
// mid-run device failure and reports the deterministic infeasible
// verdict with its restart-from-checkpoint recovery estimate.
func xtr02(w io.Writer) error {
	model := nn.BERTStyle()
	severities := []float64{1.0, 0.8, 0.6, 0.4, 0.25}
	for _, cname := range []string{"fc", "tacc"} {
		fmt.Fprintf(w, "\n%s × BERT-style, 8 devices, B=8 — device 0 at the listed speed\n\n",
			strings.ToUpper(cname))
		fmt.Fprintf(w, "%8s %-14s %4s %4s %10s %10s\n", "speed", "best scheme", "P", "D", "seq/s", "vs 1.00")
		var healthy core.Candidate
		for _, sev := range severities {
			cl, err := cluster.ByName(cname, 8)
			if err != nil {
				return err
			}
			if sev < 1 {
				cl = cl.WithStraggler(0, sev)
			}
			best, ok := core.Best(core.AutoTune(cl, model, core.SearchSpace{
				B: 8, MicroRows: 2, Workers: AutoTuneWorkers,
			}))
			if !ok {
				return fmt.Errorf("xtr02: no feasible configuration on %s at severity %.2f", cname, sev)
			}
			flip := ""
			if sev == 1.0 {
				healthy = best
			} else if best.Plan.Scheme != healthy.Plan.Scheme ||
				best.Plan.P != healthy.Plan.P || best.Plan.D != healthy.Plan.D {
				flip = "  *"
			}
			fmt.Fprintf(w, "%8.2f %-14s %4d %4d %10.3f %+9.1f%%%s\n",
				sev, label(best.Plan.Scheme), best.Plan.P, best.Plan.D,
				best.Throughput, (best.Throughput/healthy.Throughput-1)*100, flip)
		}
	}
	fmt.Fprintln(w, "\n*: different top-1 configuration than the healthy cluster — the paper's")
	fmt.Fprintln(w, "   pick must be re-tuned, not rescaled, once a device drops below that speed")

	// Failure injection: kill a mid-pipeline device at ~40% of the healthy
	// makespan and report the verdict the sweep would surface for the cell.
	cl, err := cluster.ByName("fc", 8)
	if err != nil {
		return err
	}
	plan := core.Plan{Scheme: "hanayo-w2", Cluster: cl, Model: model,
		P: 4, D: 2, B: 8, MicroRows: 2}
	ref, err := plan.Simulate(sim.Options{Prefetch: true, BatchComm: true})
	if err != nil {
		return err
	}
	plan.Faults = &sim.FaultPlan{
		Events:      []sim.FaultEvent{sim.Fail(2, 0.4*ref.Makespan)},
		RestartCost: 2 * ref.Makespan, // detect + respawn + reload ≈ 2 iterations
	}
	r, err := plan.Simulate(sim.Options{Prefetch: true, BatchComm: true})
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "\nfailure injection on FC: hanayo-w2 P=4 D=2 B=8, healthy makespan %.2fs\n", ref.Makespan)
	if !r.Failed {
		return fmt.Errorf("xtr02: injected failure did not abort the run")
	}
	fmt.Fprintf(w, "  device %d dies at t=%.2fs → infeasible; recovery estimate %.2fs\n",
		r.FailedDevice, r.FailTime, r.Recovery)
	fmt.Fprintf(w, "  (fail time + restart cost %.2fs + serial recompute + flush — the\n",
		plan.Faults.RestartCost)
	fmt.Fprintln(w, "   deterministic verdict a FAIL cell carries through sweeps and caches)")
	return nil
}
