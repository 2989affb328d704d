package core

import (
	"strconv"
	"strings"

	"repro/internal/cluster"
	"repro/internal/nn"
)

// rerankDefaultTopK is the warm-start width when the caller's space does
// not name one: re-simulate the previous top 3 and keep the first 3
// ranks exact. Matching the smallest useful K keeps the warm-up cheap —
// churn replanning calls Rerank on a latency budget.
const rerankDefaultTopK = 3

// warmSeed is one previous-ranking cell re-measured on the new cluster:
// the exact throughput of (scheme, p, d) under the sweep's B/MicroRows/
// Faults/Prune, ready to observe into the cutoff before the sweep runs.
// es is the seed's complete evaluation; the sweep pre-publishes it into
// its result memo so the seeded cell is served exact instead of being
// re-judged against a cutoff its own value just raised. (Skipping that
// would be fatal when the seed IS the Kth-best row: the cutoff then
// equals the cell's own value, and a mathematically tight analytic
// bound can land a float ulp below the simulated value, flipping the
// strict skip comparison on what is really a self-tie.)
type warmSeed struct {
	scheme string
	p, d   int
	wave   bool // seeds the (p, d) wave-group row, not a scheme row
	thr    float64
	es     *evalShared
}

// warmStart carries Rerank's seeds into sweepGrid and the sweep's cell
// statistics back out.
type warmStart struct {
	seeds []warmSeed
	stats *RerankStats
}

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

// rowID names one output row of the grid for seed de-duplication: a
// (P, D)×scheme cell, or — with scheme left empty — the (P, D) wave
// group, whose member cells share a single row.
type rowID struct {
	scheme string
	p, d   int
}

// seedRow reports whether (scheme, p, d) names a cell of the normalized
// grid, and whether that cell belongs to the (P, D)'s wave-group row
// rather than a regular scheme row. A scheme listed in space.Schemes
// matches the regular row even when it also parses as a wave tag — that
// mirrors sweepGrid's layout, where such a scheme gets its own cell.
func seedRow(space SearchSpace, scheme string, p, d int) (wave, ok bool) {
	inPD := false
	for _, pd := range space.PD {
		if pd[0] == p && pd[1] == d {
			inPD = true
			break
		}
	}
	if !inPD {
		return false, false
	}
	for _, s := range space.Schemes {
		if s == scheme {
			return false, true
		}
	}
	if rest, found := strings.CutPrefix(scheme, "hanayo-w"); found {
		if w, err := strconv.Atoi(rest); err == nil {
			for _, wv := range space.Waves {
				if wv == w {
					return true, true
				}
			}
		}
	}
	return false, false
}

// Rerank is the warm-started AutoTune for membership churn: prev is the
// ranking measured on the cluster a membership event just replaced, cl
// is the post-event cluster. Instead of sweeping cold, Rerank first
// re-simulates only the previous top-K plans that still fit the new
// cluster, seeds the branch-and-bound cutoff with their real makespans,
// and only then sweeps the grid — so costmodel.LowerBound's bound-and-
// prune skips the losing tail from the very first cell instead of
// rediscovering the cutoff row by row.
//
// The result's first TopK ranks are bit-for-bit the first TopK ranks of
// a cold AutoTune on cl with the same space. The warm start cannot
// corrupt them: every seed is the exact full evaluation of one cell of
// this very grid (same B, MicroRows, Faults and Prune), so the seeded
// cutoff never exceeds the true Kth-best row value, and both prune
// paths (bound skip and deadline abort) are strict — exactly the
// soundness argument of the cold TopK sweep, entered with a head start.
// Below rank TopK both sweeps surface proven bounds, which may differ
// because the warm sweep prunes earlier and more often.
//
// Seed evaluations publish to the Tuner's cross-sweep cache under the
// same keys the sweep computes, so the sweep re-hits them without
// issuing a second simulation. TopK defaults to 3 when the space leaves
// it unset; shard restrictions are ignored — replanning always ranks
// the full grid. The returned stats report how many cells the warm
// start pruned and how the simulation budget split.
func (t *Tuner) Rerank(prev []Candidate, cl *cluster.Cluster, model nn.Config, space SearchSpace) ([]Candidate, RerankStats) {
	space = space.withDefaults(cl)
	if space.TopK <= 0 {
		space.TopK = rerankDefaultTopK
	}
	space.shardIndex, space.shardCount = 0, 0

	var stats RerankStats
	base := SimRuns()
	clusterFP := cl.Fingerprint()
	seen := make(map[rowID]bool, space.TopK)
	var seeds []warmSeed
	for i := range prev {
		if len(seeds) >= space.TopK {
			break
		}
		c := &prev[i]
		// Only candidates that measured real throughput are worth
		// re-simulating; prev is sorted best-first, so the loop takes the
		// first TopK distinct rows that survive on the new cluster.
		if c.Err != nil || c.OOM || c.Failed || c.Throughput <= 0 {
			continue
		}
		if c.Plan.P*c.Plan.D > cl.N() {
			continue // no longer fits after a leave
		}
		wave, ok := seedRow(space, c.Plan.Scheme, c.Plan.P, c.Plan.D)
		if !ok {
			continue // not a cell of this grid
		}
		id := rowID{p: c.Plan.P, d: c.Plan.D}
		if !wave {
			id.scheme = c.Plan.Scheme
		}
		if seen[id] {
			continue // one seed per output row: a second adds nothing
		}
		seen[id] = true
		plan := Plan{Scheme: c.Plan.Scheme, Cluster: cl, Model: model,
			P: c.Plan.P, D: c.Plan.D, B: space.B, MicroRows: space.MicroRows,
			Faults: space.Faults}
		gk := keyFor(plan, space.Prune, clusterFP)
		es, err := evalKey(plan, nil, space.Prune, t, gk, gk.hash(), nil)
		stats.Seeded++
		if sc := candidateFrom(plan, es, err); err == nil && sc.Throughput > 0 {
			seeds = append(seeds, warmSeed{scheme: plan.Scheme, p: plan.P, d: plan.D,
				wave: wave, thr: sc.Throughput, es: es})
		}
	}
	stats.SeedSims = SimRuns() - base

	out := sweepGrid(cl, model, space, t, &warmStart{seeds: seeds, stats: &stats})
	sortCandidates(out)
	stats.SweepSims = SimRuns() - base - stats.SeedSims
	return out, stats
}
