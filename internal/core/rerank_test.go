package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/cachewire"
	"repro/internal/cluster"
	"repro/internal/nn"
)

// rerankSpace is the churn-test grid: explicit PD pairs, because the
// nil-PD default is empty for prime N (e.g. 7 devices after a leave
// from 8). Same-P rows keep P·D ≤ 6 so they stay equally valid over
// the whole churn range [6, 10] — see the SearchSpace.PD contract.
func rerankSpace(workers, topK int) SearchSpace {
	return SearchSpace{
		PD:        [][2]int{{2, 2}, {2, 3}, {4, 1}, {8, 1}},
		Waves:     []int{1, 2, 4},
		B:         8,
		MicroRows: 1,
		Workers:   workers,
		TopK:      topK,
	}
}

// rerankWideSpace is the single-event grid: more cells (valid at 8 and
// 9 devices) so the cutoff has a tail to prune.
func rerankWideSpace(workers, topK int) SearchSpace {
	return SearchSpace{
		PD:        [][2]int{{2, 2}, {2, 4}, {4, 1}, {4, 2}, {8, 1}},
		Waves:     []int{1, 2, 4},
		B:         8,
		MicroRows: 1,
		Workers:   workers,
		TopK:      topK,
	}
}

// positives counts the ranking prefix that measured real throughput —
// the span over which the exact-prefix guarantee is non-vacuous.
func positives(cands []Candidate, k int) int {
	n := 0
	for _, c := range cands {
		if n == k {
			break
		}
		if c.Throughput > 0 && !c.BoundPruned {
			n++
		} else {
			break
		}
	}
	return n
}

// rerankMatchesCold is the one replanning property: a Rerank of space on
// cl by a fresh Tuner built from opt is exactly a cold top-K AutoTune of
// the same space — the whole ranking, and, without a remote tier (which
// may already hold some keys), the same number of simulations — and its
// first TopK ranks are the exhaustive ranking's. space must be serial:
// at more workers the sweeps' work may race. Process-global SimRuns — no
// t.Parallel.
func rerankMatchesCold(t *testing.T, what string, cl *cluster.Cluster, space SearchSpace, opt TunerOptions) RerankStats {
	t.Helper()
	model := nn.BERTStyle()
	before := SimRuns()
	cold := AutoTune(cl, model, space)
	coldSims := SimRuns() - before

	got, stats := NewTuner(opt).Rerank(cl, model, space)
	if !reflect.DeepEqual(got, cold) {
		t.Fatalf("%s: Rerank diverges from cold top-%d AutoTune\ngot:  %+v\nwant: %+v", what, space.TopK, got, cold)
	}
	if opt.Remote == nil && stats.SweepSims != coldSims {
		t.Fatalf("%s: Rerank issued %d simulations, cold top-%d AutoTune %d", what, stats.SweepSims, space.TopK, coldSims)
	}
	if stats.Seeded != 0 || stats.SeedSims != 0 {
		t.Fatalf("%s: deprecated seed counts are not 0: %+v", what, stats)
	}

	exhaustive := space
	exhaustive.TopK = 0
	want := AutoTune(cl, model, exhaustive)
	k := positives(want, space.TopK)
	if !reflect.DeepEqual(got[:k], want[:k]) {
		t.Fatalf("%s: Rerank top-%d diverges from exhaustive AutoTune\ngot:  %+v\nwant: %+v", what, k, got[:k], want[:k])
	}
	return stats
}

// rerankAfter replans the wide grid at top 3 after one event on an
// n-device cluster.
func rerankAfter(t *testing.T, n int, ev cluster.Event) RerankStats {
	t.Helper()
	cl, err := cluster.TACC(n).Apply(ev)
	if err != nil {
		t.Fatal(err)
	}
	stats := rerankMatchesCold(t, ev.String(), cl, rerankWideSpace(1, 3), TunerOptions{Runners: 2})
	if stats.Cells == 0 || stats.Rows == 0 || stats.Cells < stats.Rows {
		t.Fatalf("%s: implausible grid stats: %+v", ev, stats)
	}
	return stats
}

// TestRerankSingleLeaveMatchesCold: after a DeviceLeave, Rerank is the
// cold top-K sweep of the surviving cluster, and that sweep prunes.
func TestRerankSingleLeaveMatchesCold(t *testing.T) {
	if stats := rerankAfter(t, 9, cluster.Event{Kind: cluster.DeviceLeave, Dev: 3}); stats.Pruned == 0 {
		t.Fatalf("the top-3 sweep pruned nothing: %+v", stats)
	}
}

// TestRerankJoinMatchesCold: the same after a DeviceJoin.
func TestRerankJoinMatchesCold(t *testing.T) {
	rerankAfter(t, 8, cluster.Event{Kind: cluster.DeviceJoin, Dev: 2})
}

// TestRerankSpeedChangeMatchesCold: the same after a SpeedChange, which
// keeps the device count.
func TestRerankSpeedChangeMatchesCold(t *testing.T) {
	rerankAfter(t, 8, cluster.Event{Kind: cluster.SpeedChange, Dev: 0, Factor: 0.5})
}

// TestRerankLinkChangeMatchesCold: the same after a LinkChange.
func TestRerankLinkChangeMatchesCold(t *testing.T) {
	rerankAfter(t, 8, cluster.Event{Kind: cluster.LinkChange, Dev: 1, Peer: 2, Factor: 0.25})
}

// TestRerankChurnProperty folds seeded random event streams over a
// cluster and holds every intermediate state's Rerank to the cold top-K
// sweep. With a Loopback tier shared by the whole stream, fingerprinted
// cache keys must keep membership states from aliasing: the ranking still
// equals the cold one, though tier hits may save simulations.
func TestRerankChurnProperty(t *testing.T) {
	t.Run("local", func(t *testing.T) { rerankChurn(t, TunerOptions{Runners: 2}) })
	t.Run("remote", func(t *testing.T) {
		rerankChurn(t, TunerOptions{Runners: 2, Remote: cachewire.NewLoopback(0)})
	})
}

func rerankChurn(t *testing.T, opt TunerOptions) {
	space := rerankSpace(1, 3)
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		cl := cluster.TACC(8)
		for step := 0; step < 3; step++ {
			ev := randomEvent(rng, cl)
			next, err := cl.Apply(ev)
			if err != nil {
				t.Fatalf("seed %d step %d: Apply(%s): %v", seed, step, ev, err)
			}
			cl = next
			rerankMatchesCold(t, fmt.Sprintf("seed %d step %d (%s)", seed, step, ev), cl, space, opt)
		}
	}
}

// randomEvent draws one membership event valid for the current cluster,
// keeping the device count in [6, 10] so the pinned PD grid always has
// live rows. Factors are powers of 0.5 for exact float comparability.
func randomEvent(rng *rand.Rand, cl *cluster.Cluster) cluster.Event {
	n := cl.N()
	for {
		switch rng.Intn(4) {
		case 0:
			if n > 6 {
				return cluster.Event{Kind: cluster.DeviceLeave, Dev: rng.Intn(n)}
			}
		case 1:
			if n < 10 {
				return cluster.Event{Kind: cluster.DeviceJoin, Dev: rng.Intn(n)}
			}
		case 2:
			return cluster.Event{Kind: cluster.SpeedChange, Dev: rng.Intn(n),
				Factor: 1 / float64(int(1)<<(1+rng.Intn(2)))}
		default:
			dev := rng.Intn(n)
			peer := (dev + 1 + rng.Intn(n-1)) % n
			return cluster.Event{Kind: cluster.LinkChange, Dev: dev, Peer: peer,
				Factor: 1 / float64(int(1)<<(1+rng.Intn(2)))}
		}
	}
}

// TestRerankDefaultsTopK: a space without TopK gets the replanning
// default (3) rather than an exhaustive sweep.
func TestRerankDefaultsTopK(t *testing.T) {
	cl := cluster.TACC(9).WithoutDevice(0)
	model := nn.BERTStyle()
	space := rerankSpace(1, 0)
	got, stats := NewTuner(TunerOptions{Runners: 2}).Rerank(cl, model, space)
	space.TopK = rerankDefaultTopK
	before := SimRuns()
	want := AutoTune(cl, model, space)
	if coldSims := SimRuns() - before; !reflect.DeepEqual(got, want) || stats.SweepSims != coldSims {
		t.Fatalf("defaulted-TopK Rerank (%d sims) is not the cold top-%d AutoTune (%d sims)\ngot:  %+v\nwant: %+v",
			stats.SweepSims, rerankDefaultTopK, coldSims, got, want)
	}
}
