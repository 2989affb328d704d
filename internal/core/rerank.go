package core

import (
	"repro/internal/cluster"
	"repro/internal/nn"
)

// rerankDefaultTopK is the replanning width when the caller's space does
// not name one: keep the first 3 ranks exact. Matching the smallest useful
// K keeps the sweep cheap — churn replanning calls Rerank on a latency
// budget.
const rerankDefaultTopK = 3

// RerankStats reports what one replanning sweep did: the grid it laid
// out, the cells its cutoff eliminated and the simulations it issued.
// SweepSims is a delta of the process-wide SimRuns hook, so concurrent
// unrelated sweeps in the same process can inflate it; within one
// replanning call it is exact.
type RerankStats struct {
	Cells  int   // grid cells laid out by the sweep
	Rows   int   // output rows (a wave group collapses to one row)
	Pruned int64 // cells the cutoff eliminated (bound skips + deadline aborts)
	// Deprecated: always 0; replanning no longer re-simulates a previous
	// ranking first.
	Seeded int
	// Deprecated: always 0; SweepSims counts every simulation.
	SeedSims  int64
	SweepSims int64 // simulations issued by the sweep
}

// Rerank is the replanning search for membership churn: the cold TopK
// AutoTune on the post-event cluster cl, with the counts a ReplanReport
// records. Its ranking is exactly the AutoTune ranking of the same space
// on this Tuner, so its first TopK ranks are bit-for-bit those of an
// exhaustive sweep. TopK defaults to 3 when the space leaves it unset;
// shard restrictions are ignored — replanning always ranks the full grid.
func (t *Tuner) Rerank(cl *cluster.Cluster, model nn.Config, space SearchSpace) ([]Candidate, RerankStats) {
	if space.TopK <= 0 {
		space.TopK = rerankDefaultTopK
	}
	space.shardIndex, space.shardCount = 0, 0

	base := SimRuns()
	s := enumerate(cl, model, space, t)
	out := s.run(cl, model)
	sortCandidates(out)
	return out, RerankStats{Cells: len(s.cells), Rows: s.slots,
		Pruned: s.cut.pruned.Load(), SweepSims: SimRuns() - base}
}
