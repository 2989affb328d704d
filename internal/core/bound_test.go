package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/cachewire"
	"repro/internal/cluster"
	"repro/internal/nn"
)

// topKSpace is fig10Space (the grid the bound-and-prune acceptance
// criteria are stated against) with the full wave set and a TopK knob.
func topKSpace(workers, topK int, prune bool) SearchSpace {
	s := fig10Space(workers, prune)
	s.Waves = []int{1, 2, 4, 8}
	s.TopK = topK
	return s
}

// TestCutoffState pins the per-output-row Kth-best protocol: wave-group
// members share a slot (only the row max counts), updates are monotone,
// and the cutoff stays 0 until k rows carry real values.
func TestCutoffState(t *testing.T) {
	c := newCutoffState(2, 3)
	if c.cutoff() != 0 {
		t.Fatal("fresh cutoff must be 0")
	}
	c.observe(0, 10)
	if c.cutoff() != 0 {
		t.Fatalf("one scored row of two needed: cutoff %g, want 0", c.cutoff())
	}
	c.observe(1, 5)
	if c.cutoff() != 5 {
		t.Fatalf("cutoff %g, want 5 (2nd-best of {10,5,0})", c.cutoff())
	}
	c.observe(1, 4) // same slot, lower value: monotone no-op
	if c.cutoff() != 5 {
		t.Fatalf("lower same-slot value moved the cutoff to %g", c.cutoff())
	}
	c.observe(2, 7)
	if c.cutoff() != 7 {
		t.Fatalf("cutoff %g, want 7 (2nd-best of {10,5,7})", c.cutoff())
	}
	c.observe(0, 0) // OOM/error cells are no-ops
	if c.cutoff() != 7 {
		t.Fatal("zero observation must not move the cutoff")
	}
	// Fewer rows than k: pruning stays disabled forever.
	small := newCutoffState(4, 2)
	small.observe(0, 10)
	small.observe(1, 10)
	if small.cutoff() != 0 {
		t.Fatalf("2-row grid with k=4: cutoff %g, want 0", small.cutoff())
	}
}

// TestTopKPrefixMatchesExhaustive is the tentpole's exactness criterion:
// for every TopK the first TopK ranked candidates are bit-for-bit
// identical to the exhaustive sweep's, every fully evaluated candidate
// agrees with its exhaustive twin, and every bound-pruned row's proven
// Bound really does bound its exhaustive value from above while the
// value stays strictly below the Kth-best (it was provably prunable).
func TestTopKPrefixMatchesExhaustive(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	for _, prune := range []bool{false, true} {
		want := AutoTune(cl, model, topKSpace(1, 0, prune))
		for _, topK := range []int{1, 3, 5} {
			got := AutoTune(cl, model, topKSpace(1, topK, prune))
			if len(got) != len(want) {
				t.Fatalf("prune=%v topK=%d: %d candidates, want %d", prune, topK, len(got), len(want))
			}
			for i := 0; i < topK; i++ {
				if !reflect.DeepEqual(got[i], want[i]) {
					t.Fatalf("prune=%v topK=%d rank %d differs\ngot:  %+v\nwant: %+v",
						prune, topK, i, got[i], want[i])
				}
			}
			// Index the exhaustive values by cell for the tail checks. A
			// wave-group row keys on (P, D) alone: a bound-pruned group may
			// surface a different wave's plan than the exhaustive winner.
			key := func(c Candidate) [3]interface{} {
				scheme := c.Plan.Scheme
				if strings.HasPrefix(scheme, "hanayo-") {
					scheme = "hanayo"
				}
				return [3]interface{}{scheme, c.Plan.P, c.Plan.D}
			}
			exact := map[[3]interface{}]Candidate{}
			for _, c := range want {
				exact[key(c)] = c
			}
			kth := want[topK-1].Throughput
			pruned := 0
			for _, c := range got {
				w, ok := exact[key(c)]
				if !ok {
					t.Fatalf("prune=%v topK=%d: candidate %s P=%d D=%d not in exhaustive sweep",
						prune, topK, c.Plan.Scheme, c.Plan.P, c.Plan.D)
				}
				if !c.BoundPruned {
					if c.Throughput != w.Throughput || c.PeakGB != w.PeakGB || c.OOM != w.OOM || c.Pruned != w.Pruned {
						t.Fatalf("prune=%v topK=%d: fully evaluated %s P=%d D=%d diverges from exhaustive\ngot:  %+v\nwant: %+v",
							prune, topK, c.Plan.Scheme, c.Plan.P, c.Plan.D, c, w)
					}
					continue
				}
				pruned++
				if c.Bound <= 0 {
					t.Fatalf("bound-pruned %s P=%d D=%d without a proven bound", c.Plan.Scheme, c.Plan.P, c.Plan.D)
				}
				if w.Throughput > c.Bound*(1+1e-9) {
					t.Fatalf("prune=%v topK=%d: %s P=%d D=%d pruned with bound %.6f below its true value %.6f",
						prune, topK, c.Plan.Scheme, c.Plan.P, c.Plan.D, c.Bound, w.Throughput)
				}
				if w.Throughput >= kth {
					t.Fatalf("prune=%v topK=%d: %s P=%d D=%d pruned but its true value %.6f is top-%d material (kth %.6f)",
						prune, topK, c.Plan.Scheme, c.Plan.P, c.Plan.D, w.Throughput, topK, kth)
				}
			}
			if topK <= 3 && pruned == 0 {
				t.Fatalf("prune=%v topK=%d: nothing bound-pruned on the fig10 grid — the bound is not biting", prune, topK)
			}
		}
	}
}

// TestTopKWorkerInvariance: the top-K prefix must be identical for every
// worker count despite cutoff races — racing workers can only observe a
// lower cutoff and over-evaluate, never mis-rank.
func TestTopKWorkerInvariance(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	const topK = 3
	want := AutoTune(cl, model, topKSpace(1, topK, false))[:topK]
	for _, workers := range []int{2, 4, 8, 64} { // 64 > the grid's 21 cells
		got := AutoTune(cl, model, topKSpace(workers, topK, false))[:topK]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("workers=%d: top-%d differs from serial\ngot:  %+v\nwant: %+v",
				workers, topK, got, want)
		}
	}
}

// TestTopKShardMergeParity: the cutoff is shard-local, so every shard's
// top-K is exact and merging bound-pruned shards reproduces the
// exhaustive top-K — the tentpole's sharding criterion.
func TestTopKShardMergeParity(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	const topK = 3
	want := AutoTune(cl, model, topKSpace(1, 0, false))[:topK]
	for _, n := range []int{2, 3, 4} {
		space := topKSpace(2, topK, false)
		parts := make([][]Candidate, n)
		for i := 0; i < n; i++ {
			parts[i] = AutoTuneShard(cl, model, space.Shard(i, n))
		}
		merged := MergeShards(parts...)
		if !reflect.DeepEqual(merged[:topK], want) {
			t.Fatalf("n=%d: merged top-%d differs from exhaustive\ngot:  %+v\nwant: %+v",
				n, topK, merged[:topK], want)
		}
	}
}

// TestTopKSkipsSimulations asserts the perf mechanism, not just the
// ranking: a serial TopK=3 sweep must issue strictly fewer simulator
// walks than the exhaustive sweep's one-per-key (bound-skipped cells
// never start one; RunDeadline aborts count but cost little). Process-
// global counter — not t.Parallel.
func TestTopKSkipsSimulations(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	before := SimRuns()
	AutoTune(cl, model, topKSpace(1, 0, false))
	exhaustive := SimRuns() - before

	before = SimRuns()
	AutoTune(cl, model, topKSpace(1, 3, false))
	bounded := SimRuns() - before
	if bounded >= exhaustive {
		t.Fatalf("TopK=3 issued %d simulator walks, exhaustive %d — the bound never skipped a cell",
			bounded, exhaustive)
	}
}

// TestTunerTopKNeverCachesBoundPruned: bounded sweeps must publish only
// complete evaluations to the Tuner's tiers. A TopK sweep warms a Tuner
// backed by a loopback remote tier; the follow-up exhaustive sweep
// through a FRESH Tuner on the same tier must still reproduce the pure
// exhaustive ranking bit-for-bit — a poisoned (deadline-aborted) entry
// in either tier would surface as a wrong cached throughput.
func TestTunerTopKNeverCachesBoundPruned(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	want := AutoTune(cl, model, topKSpace(2, 0, false))

	remote := cachewire.NewLoopback(0)
	warm := NewTuner(TunerOptions{Remote: remote})
	bounded := warm.AutoTune(cl, model, topKSpace(2, 3, false))
	if !reflect.DeepEqual(bounded[:3], want[:3]) {
		t.Fatalf("tuner TopK=3 top-3 differs from exhaustive\ngot:  %+v\nwant: %+v", bounded[:3], want[:3])
	}
	cold := NewTuner(TunerOptions{Remote: remote})
	got := cold.AutoTune(cl, model, topKSpace(2, 0, false))
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("exhaustive sweep over the TopK-warmed tier diverges — a bound-pruned entry leaked into the cache\ngot:  %+v\nwant: %+v",
			got, want)
	}
}
