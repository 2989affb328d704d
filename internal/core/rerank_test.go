package core

import (
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
// 9 devices) so the seeded cutoff has a tail to prune.
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

// TestRerankSingleLeaveMatchesCold is the tentpole's acceptance test:
// after one DeviceLeave, Rerank's first TopK ranks are bit-for-bit the
// cold AutoTune ranking on the surviving cluster, while the warm start
// issues strictly fewer simulations than the cold sweep it replaces and
// reports the cells it pruned. Process-global SimRuns — no t.Parallel.
func TestRerankSingleLeaveMatchesCold(t *testing.T) {
	cl0 := cluster.TACC(9)
	model := nn.BERTStyle()
	const topK = 3
	space := rerankWideSpace(2, topK)

	prevTuner := NewTuner(TunerOptions{Runners: 2})
	prev := prevTuner.AutoTune(cl0, model, space)

	cl1, err := cl0.Apply(cluster.Event{Kind: cluster.DeviceLeave, Dev: 3})
	if err != nil {
		t.Fatal(err)
	}

	exhaustive := space
	exhaustive.TopK = 0
	before := SimRuns()
	want := AutoTune(cl1, model, exhaustive)
	coldSims := SimRuns() - before

	warmTuner := NewTuner(TunerOptions{Runners: 2})
	got, stats := warmTuner.Rerank(prev, cl1, model, space)

	k := positives(want, topK)
	if k < 2 {
		t.Fatalf("grid too degenerate to test: only %d positive ranks", k)
	}
	if !reflect.DeepEqual(got[:k], want[:k]) {
		t.Fatalf("Rerank top-%d diverges from cold AutoTune\ngot:  %+v\nwant: %+v",
			k, got[:k], want[:k])
	}

	warmSims := stats.SeedSims + stats.SweepSims
	if warmSims >= coldSims {
		t.Fatalf("warm start issued %d simulations (seed %d + sweep %d), cold sweep %d — the seeds bought nothing",
			warmSims, stats.SeedSims, stats.SweepSims, coldSims)
	}
	if stats.Seeded == 0 || stats.Pruned == 0 {
		t.Fatalf("stats do not show the mechanism: %+v", stats)
	}
	if stats.Cells == 0 || stats.Rows == 0 || stats.Cells < stats.Rows {
		t.Fatalf("implausible grid stats: %+v", stats)
	}
}

// TestRerankSpeedChangeMatchesCold covers the other single-event
// acceptance case: a SpeedChange (no membership change, same device
// count) must also replan exactly.
func TestRerankSpeedChangeMatchesCold(t *testing.T) {
	cl0 := cluster.TACC(8)
	model := nn.BERTStyle()
	const topK = 3
	space := rerankWideSpace(2, topK)

	prevTuner := NewTuner(TunerOptions{Runners: 2})
	prev := prevTuner.AutoTune(cl0, model, space)

	cl1, err := cl0.Apply(cluster.Event{Kind: cluster.SpeedChange, Dev: 0, Factor: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	exhaustive := space
	exhaustive.TopK = 0
	want := AutoTune(cl1, model, exhaustive)

	warmTuner := NewTuner(TunerOptions{Runners: 2})
	got, stats := warmTuner.Rerank(prev, cl1, model, space)

	k := positives(want, topK)
	if k < 2 {
		t.Fatalf("grid too degenerate to test: only %d positive ranks", k)
	}
	if !reflect.DeepEqual(got[:k], want[:k]) {
		t.Fatalf("Rerank top-%d diverges after SpeedChange\ngot:  %+v\nwant: %+v", k, got[:k], want[:k])
	}
	if stats.Seeded == 0 {
		t.Fatalf("no seeds survived a same-size speed change: %+v", stats)
	}
}

// TestRerankChurnProperty is the churn-sequence property test: fold a
// random event stream over a cluster, Rerank at every step with the
// previous step's warm ranking, and assert the exact-prefix equality
// against a cold exhaustive AutoTune on every intermediate state. One
// serving Tuner persists across the whole stream — fingerprinted cache
// keys must keep membership states from aliasing. The stream is
// seeded, so the aggregate fewer-simulations assertion is
// deterministic. It holds with and without a remote tier behind the
// Tuner: seeds and sweep share one batched window onto it.
func TestRerankChurnProperty(t *testing.T) {
	t.Run("local", func(t *testing.T) { rerankChurn(t, TunerOptions{Runners: 2}) })
	t.Run("remote", func(t *testing.T) {
		rerankChurn(t, TunerOptions{Runners: 2, Remote: cachewire.NewLoopback(0)})
	})
}

func rerankChurn(t *testing.T, opt TunerOptions) {
	model := nn.BERTStyle()
	const topK = 3
	space := rerankSpace(2, topK)
	tun := NewTuner(opt)

	var warmTotal, coldTotal int64
	for _, seed := range []int64{1, 2, 3, 4} {
		rng := rand.New(rand.NewSource(seed))
		cl := cluster.TACC(8)
		prev := tun.AutoTune(cl, model, space)
		for step := 0; step < 3; step++ {
			ev := randomEvent(rng, cl)
			next, err := cl.Apply(ev)
			if err != nil {
				t.Fatalf("seed %d step %d: Apply(%s): %v", seed, step, ev, err)
			}
			cl = next

			exhaustive := space
			exhaustive.TopK = 0
			before := SimRuns()
			want := AutoTune(cl, model, exhaustive)
			coldTotal += SimRuns() - before

			got, stats := tun.Rerank(prev, cl, model, space)
			warmTotal += stats.SeedSims + stats.SweepSims

			k := positives(want, topK)
			if !reflect.DeepEqual(got[:k], want[:k]) {
				t.Fatalf("seed %d step %d (%s): Rerank top-%d diverges from cold\ngot:  %+v\nwant: %+v",
					seed, step, ev, k, got[:k], want[:k])
			}
			prev = got
		}
	}
	if warmTotal >= coldTotal {
		t.Fatalf("across the churn streams the warm starts issued %d simulations, cold exhaustive sweeps %d",
			warmTotal, coldTotal)
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

// TestRerankNoSeeds: an empty or useless prev ranking degrades Rerank
// to a plain cold TopK sweep — same exact prefix, no seeds, no crash.
func TestRerankNoSeeds(t *testing.T) {
	cl := cluster.TACC(8)
	model := nn.BERTStyle()
	const topK = 3
	space := rerankSpace(2, topK)
	exhaustive := space
	exhaustive.TopK = 0
	want := AutoTune(cl, model, exhaustive)
	k := positives(want, topK)

	for _, prev := range [][]Candidate{
		nil,
		{{Plan: Plan{Scheme: "gpipe", P: 64, D: 64}, Throughput: 99}},    // does not fit
		{{Plan: Plan{Scheme: "nonesuch", P: 2, D: 2}, Throughput: 42}},   // not in the grid
		{{Plan: Plan{Scheme: "hanayo-w16", P: 2, D: 2}, Throughput: 17}}, // wave not in ladder
		{{Plan: Plan{Scheme: "gpipe", P: 2, D: 2}, OOM: true}},           // no real value
		{{Plan: Plan{Scheme: "gpipe", P: 3, D: 3}, Throughput: 5}},       // (P,D) not in PD
	} {
		tun := NewTuner(TunerOptions{Runners: 2})
		got, stats := tun.Rerank(prev, cl, model, space)
		if !reflect.DeepEqual(got[:k], want[:k]) {
			t.Fatalf("prev=%+v: top-%d diverges from cold", prev, k)
		}
		if stats.Seeded != 0 {
			t.Fatalf("prev=%+v seeded %d rows, want 0", prev, stats.Seeded)
		}
	}
}

// TestRerankDefaultsTopK: a space without TopK gets the replanning
// default (3) rather than an exhaustive sweep.
func TestRerankDefaultsTopK(t *testing.T) {
	cl := cluster.TACC(9)
	model := nn.BERTStyle()
	space := rerankSpace(2, 0)
	tun := NewTuner(TunerOptions{Runners: 2})
	prev := tun.AutoTune(cl, model, rerankSpace(2, 3))
	cl1 := cl.WithoutDevice(0)
	got, stats := tun.Rerank(prev, cl1, model, space)
	exhaustive := space
	exhaustive.TopK = 0
	want := AutoTune(cl1, model, exhaustive)
	k := positives(want, rerankDefaultTopK)
	if !reflect.DeepEqual(got[:k], want[:k]) {
		t.Fatalf("defaulted-TopK Rerank diverges from cold\ngot:  %+v\nwant: %+v", got[:k], want[:k])
	}
	if stats.Seeded == 0 || stats.Seeded > rerankDefaultTopK {
		t.Fatalf("defaulted TopK seeded %d rows, want 1..%d", stats.Seeded, rerankDefaultTopK)
	}
}

// BenchmarkRerankAfterLeave is the replanning-latency benchmark pinned
// by the CI bench smoke step: one warm-started re-rank on a fresh Tuner
// after a single DeviceLeave, seeds included.
func BenchmarkRerankAfterLeave(b *testing.B) {
	cl0 := cluster.TACC(9)
	model := nn.BERTStyle()
	space := rerankWideSpace(2, 3)
	prevTuner := NewTuner(TunerOptions{Runners: 2})
	prev := prevTuner.AutoTune(cl0, model, space)
	cl1 := cl0.WithoutDevice(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tun := NewTuner(TunerOptions{Runners: 2})
		if _, stats := tun.Rerank(prev, cl1, model, space); stats.Seeded == 0 {
			b.Fatal("benchmark scenario stopped seeding")
		}
	}
}
