package core

import (
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/nn"
)

// TestColdSweepAllocsPinned pins what a cold §5.3 search allocates on the
// Fig 10 grid: with every schedule consumed on the Generator that built it
// and every arena sized once, what is left is per-key output — cost tables,
// memory estimates, shape entries, candidates — not compiler or executor
// state. Budgets are the measured counts (449, 224, 512, within two under
// -race: nothing on the path draws from a sync.Pool) plus at most 5 %;
// 482, 241 and 544 before the sweep's key memos shared one slab, and
// 3 201, 966 and 3 805 before the schedules were compiled in place.
func TestColdSweepAllocsPinned(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	for _, tc := range []struct {
		name   string
		topK   int
		prune  bool
		budget float64
	}{
		{"exhaustive", 0, false, 471},
		{"topk3", 3, false, 235},
		{"prune", 0, true, 537},
	} {
		space := topKSpace(1, tc.topK, tc.prune)
		got := testing.AllocsPerRun(5, func() {
			if len(AutoTune(cl, model, space)) == 0 {
				t.Fatal("empty sweep")
			}
		})
		t.Logf("%s: %.0f objects (budget %.0f)", tc.name, got, tc.budget)
		if got > tc.budget {
			t.Errorf("%s: a cold sweep allocates %.0f objects, budget %.0f", tc.name, got, tc.budget)
		}
	}
}

// TestSharedKeyTopKMatchesExhaustive covers the path the per-sweep schedule
// memo used to serve: a bounded key aborted in one cell is recompiled — on
// whichever worker meets it — for the next cell that shares it. The grid
// lists P = 8 and 16 under two D each, and (8, 4) a second time so that a
// cell aborted at the cutoff is met again with the same bound (at TopK 1
// chimera-wave and hanayo-w1 on P = 8 abort, then recompile). For every
// TopK and worker count the top-K prefix must stay bit-for-bit the
// exhaustive ranking's.
func TestSharedKeyTopKMatchesExhaustive(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	space := SearchSpace{
		PD:        [][2]int{{8, 4}, {8, 2}, {16, 2}, {16, 1}, {8, 4}},
		Waves:     []int{1, 2, 4},
		B:         8,
		MicroRows: 2,
		Workers:   1,
	}
	want := AutoTune(cl, model, space)
	for topK := 1; topK <= 3; topK++ {
		for _, workers := range []int{1, 4} {
			space.TopK, space.Workers = topK, workers
			if got := AutoTune(cl, model, space)[:topK]; !reflect.DeepEqual(got, want[:topK]) {
				t.Fatalf("TopK=%d workers=%d: prefix differs from exhaustive\ngot:  %+v\nwant: %+v",
					topK, workers, got, want[:topK])
			}
		}
	}
}

// TestPooledEvaluatorsRetainNothing: a Tuner's pooled evaluators outlive
// the sweep, and every schedule they compiled is overwritten by the next
// one. A sweep followed by a different-shape sweep on the same pool must
// return candidates identical to two fresh AutoTunes — nothing a candidate
// carries may live in a Generator-owned schedule.
func TestPooledEvaluatorsRetainNothing(t *testing.T) {
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	first := SearchSpace{PD: [][2]int{{16, 1}, {8, 2}}, Waves: []int{1, 4}, B: 16, MicroRows: 2, Workers: 4}
	second := SearchSpace{PD: [][2]int{{4, 4}, {8, 2}}, Waves: []int{2}, B: 4, MicroRows: 1, Workers: 4}
	tuner := NewTuner(TunerOptions{Runners: 2, CacheEntries: -1})
	got1 := tuner.AutoTune(cl, model, first)
	got2 := tuner.AutoTune(cl, model, second)
	if want := AutoTune(cl, model, first); !reflect.DeepEqual(got1, want) {
		t.Fatalf("first sweep changed after the pool moved on\ngot:  %+v\nwant: %+v", got1, want)
	}
	if want := AutoTune(cl, model, second); !reflect.DeepEqual(got2, want) {
		t.Fatalf("second sweep on reused evaluators differs from a fresh one\ngot:  %+v\nwant: %+v", got2, want)
	}
}

// TestPoolClampedToGrid: a sweep starts no more workers — and, standalone,
// builds no more evaluators — than it has cells. A one-cell grid must cost
// the same whether it asks for 1 worker or 64.
func TestPoolClampedToGrid(t *testing.T) {
	cl := cluster.TACC(8)
	model := nn.BERTStyle()
	space := SearchSpace{Schemes: []string{"dapple"}, Waves: []int{}, PD: [][2]int{{8, 1}}, B: 4, MicroRows: 1}
	count := func(workers int) float64 {
		space.Workers = workers
		return testing.AllocsPerRun(3, func() {
			if len(AutoTune(cl, model, space)) != 1 {
				t.Fatal("want one candidate")
			}
		})
	}
	if one, wide := count(1), count(64); wide > one {
		t.Fatalf("one cell under 64 workers allocates %.0f objects, under 1 worker %.0f", wide, one)
	}
}
