package experiments

import (
	"fmt"
	"io"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/nn"
)

func init() {
	register("xtr03", "Elastic churn: top-K replanning vs exhaustive re-sweep", xtr03)
}

// xtr03 quantifies the elasticity layer's replanning cost: after a
// membership event, Tuner.Rerank — the bound-and-prune top-K search —
// reaches the exact top-K of an exhaustive AutoTune on the new cluster
// while issuing fewer simulations and finishing faster. The table folds
// one event of each kind over an 8-device TACC cluster and reports, per
// event, both searches' simulation counts and latencies plus the plan
// Rerank elected — the replanning cost a drain-and-replan recovery
// actually pays at the flush barrier. Latencies are wall-clock and
// machine-dependent; the plan columns are deterministic, and so are the
// simulation and pruned counts at -workers 1 (with more workers a race on
// the shared cutoff can only over-evaluate, so they may rise). A -events
// JSON stream (cluster.ParseEvents) replaces the default churn.
func xtr03(w io.Writer) error {
	model := nn.BERTStyle()
	cl := cluster.TACC(8)
	// Explicit PD pairs: the nil-PD default is empty for prime N, and the
	// churn below visits 7 and 9 devices. Same-P rows keep P·D ≤ 6 so
	// every cell stays valid over the whole stream (SearchSpace.PD
	// contract).
	space := core.SearchSpace{
		PD:        [][2]int{{2, 2}, {2, 3}, {4, 1}, {8, 1}},
		Waves:     []int{1, 2, 4},
		B:         8,
		MicroRows: 1,
		Workers:   AutoTuneWorkers,
		TopK:      3,
	}
	evs := Events
	if evs == nil {
		evs = []cluster.Event{
			{Kind: cluster.DeviceLeave, Dev: 3},
			{Kind: cluster.DeviceJoin, Dev: 2},
			{Kind: cluster.SpeedChange, Dev: 0, Factor: 0.5},
			{Kind: cluster.LinkChange, Dev: 1, Peer: 2, Factor: 0.25},
		}
	}

	tuner := core.NewTuner(core.TunerOptions{})
	best, ok := core.Best(tuner.AutoTune(cl, model, space))
	if !ok {
		return fmt.Errorf("xtr03: no feasible configuration on the initial cluster")
	}
	fmt.Fprintf(w, "\nTACC × BERT-style, starting at 8 devices, B=8, exact top-%d\n", space.TopK)
	fmt.Fprintf(w, "initial plan: %s P=%d D=%d (%.3f seq/s)\n\n",
		displayName(best.Plan.Scheme), best.Plan.P, best.Plan.D, best.Throughput)
	fmt.Fprintf(w, "%-22s %3s  %10s %10s %7s  %10s %10s  %-18s\n",
		"event", "N", "topK sims", "full sims", "pruned", "topK", "full", "new best")

	for _, ev := range evs {
		next, err := cl.Apply(ev)
		if err != nil {
			return fmt.Errorf("xtr03: %s: %w", ev, err)
		}

		// The baseline, from a fresh tuner: the exhaustive full re-sweep a
		// deployment without any pruning would re-run.
		exhaustive := space
		exhaustive.TopK = 0
		before := core.SimRuns()
		t0 := time.Now()
		full := core.NewTuner(core.TunerOptions{}).AutoTune(next, model, exhaustive)
		fullDur := time.Since(t0)
		fullSims := core.SimRuns() - before

		t0 = time.Now()
		ranking, stats := tuner.Rerank(next, model, space)
		topKDur := time.Since(t0)

		rb, ok := core.Best(ranking)
		if !ok {
			return fmt.Errorf("xtr03: no feasible configuration after %s", ev)
		}
		if fb, ok := core.Best(full); !ok || fb.Plan.Scheme != rb.Plan.Scheme ||
			fb.Plan.P != rb.Plan.P || fb.Plan.D != rb.Plan.D {
			return fmt.Errorf("xtr03: top-K and exhaustive searches disagree after %s", ev)
		}
		changed := ""
		if rb.Plan.Scheme != best.Plan.Scheme || rb.Plan.P != best.Plan.P || rb.Plan.D != best.Plan.D {
			changed = " *"
		}
		fmt.Fprintf(w, "%-22s %3d  %10d %10d %7d  %10s %10s  %s P=%d D=%d%s\n",
			ev, next.N(), stats.SweepSims, fullSims, stats.Pruned,
			topKDur.Round(time.Millisecond), fullDur.Round(time.Millisecond),
			displayName(rb.Plan.Scheme), rb.Plan.P, rb.Plan.D, changed)

		cl, best = next, rb
	}
	fmt.Fprintln(w, "\n*: the event moved the optimum — the drain-and-replan loop reshapes the")
	fmt.Fprintln(w, "   live engine onto the new plan, keeping its trained weights.")
	fmt.Fprintln(w, "Top-K and exhaustive agree on the exact top ranks by construction (the")
	fmt.Fprintln(w, "cutoff never exceeds the true Kth-best value; both prune paths are strict).")
	return nil
}
