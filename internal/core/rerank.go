package core

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/nn"
)

// rerankDefaultTopK is the warm-start width when the caller's space does
// not name one: re-simulate the previous top 3 and keep the first 3
// ranks exact. Matching the smallest useful K keeps the warm-up cheap —
// churn replanning calls Rerank on a latency budget.
const rerankDefaultTopK = 3

// RerankStats quantifies what the warm start bought: how much of the
// grid the seeded cutoff eliminated, and how the simulation budget split
// between the seed re-evaluations and the sweep proper. Sim counters are
// deltas of the process-wide SimRuns hook, so concurrent unrelated
// sweeps in the same process can inflate them; within one replanning
// call they are exact.
type RerankStats struct {
	Cells     int   // grid cells laid out by the warm sweep
	Rows      int   // output rows (a wave group collapses to one row)
	Seeded    int   // previous candidates re-simulated on the new cluster
	Pruned    int64 // cells the cutoff eliminated (bound skips + deadline aborts)
	SeedSims  int64 // simulations issued by the warm-up re-evaluations
	SweepSims int64 // simulations issued by the seeded sweep itself
}

// seedCells picks the warm start out of a previous ranking: the cells of
// this grid named by the first TopK candidates of prev (sorted best-first)
// that measured real throughput and are still live here — a plan that no
// longer fits the cluster after a leave is an invalid cell, settled at
// enumerate — one per output row, since a second seed in a row adds nothing
// to a cutoff that counts rows. Cells are matched in grid order, so a
// scheme listed in space.Schemes takes its regular row even when it also
// parses as a wave tag, and a candidate that names no cell seeds nothing.
func (s *gridSweep) seedCells(prev []Candidate) []int {
	var seeds []int
	for pi := 0; pi < len(prev) && len(seeds) < s.space.TopK; pi++ {
		p := &prev[pi]
		if p.Err != nil || p.OOM || p.Failed || p.Throughput <= 0 {
			continue
		}
		for i := range s.cells {
			c := &s.cells[i]
			if c.settled || c.plan.Scheme != p.Plan.Scheme || c.plan.P != p.Plan.P || c.plan.D != p.Plan.D {
				continue
			}
			if !slices.ContainsFunc(seeds, func(j int) bool { return s.cells[j].slot == c.slot }) {
				seeds = append(seeds, i)
			}
			break
		}
	}
	return seeds
}

// Rerank is the warm-started AutoTune for membership churn: prev is the
// ranking measured on the cluster a membership event just replaced, cl
// is the post-event cluster. It is the sweep every AutoTune runs, entered
// with a head start: on the one laid-out, prefetched grid the previous
// top-K plans' cells evaluate first, in full, so their real makespans set
// the branch-and-bound cutoff before the rest of the grid is walked — and
// costmodel.LowerBound's bound-and-prune skips the losing tail from the
// very first cell instead of rediscovering the cutoff row by row. With no
// usable seed it is exactly the cold TopK sweep.
//
// The result's first TopK ranks are bit-for-bit the first TopK ranks of
// a cold AutoTune on cl with the same space. The warm start cannot
// corrupt them: every seed is the exact full evaluation of one cell of
// this very grid (same B, MicroRows, Faults and Prune), so the seeded
// cutoff never exceeds the true Kth-best row value, and both prune
// paths (bound skip and deadline abort) are strict — exactly the
// soundness argument of the cold TopK sweep. Below rank TopK both sweeps
// surface proven bounds, which may differ because the warm sweep prunes
// earlier and more often.
//
// Seeds resolve like any cell — cache tiers first, one prefetch and one
// flush for the whole call on a remote tier — and a settled seed is not
// walked again. TopK defaults to 3 when the space leaves it unset; shard
// restrictions are ignored — replanning always ranks the full grid. The
// returned stats report how many cells the warm start pruned and how the
// simulation budget split.
func (t *Tuner) Rerank(prev []Candidate, cl *cluster.Cluster, model nn.Config, space SearchSpace) ([]Candidate, RerankStats) {
	if space.TopK <= 0 {
		space.TopK = rerankDefaultTopK
	}
	space.shardIndex, space.shardCount = 0, 0

	s := enumerate(cl, model, space, t)
	s.bound(cl, model)
	s.prefetch()
	seeds := s.seedCells(prev)
	base := SimRuns()
	s.evaluate(seeds, false)
	seedSims := SimRuns() - base
	s.evaluate(s.order(), true)
	out := s.reduce()
	sortCandidates(out)
	return out, RerankStats{Cells: len(s.cells), Rows: s.slots, Seeded: len(seeds),
		Pruned: s.cut.pruned.Load(), SeedSims: seedSims, SweepSims: SimRuns() - base - seedSims}
}
