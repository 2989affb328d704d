package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"repro/internal/cachewire"
	"repro/internal/cluster"
	"repro/internal/nn"
)

// TestColdSweepAllocsPinned pins what a cold §5.3 search allocates on the
// Fig 10 grid: with every schedule consumed on the Generator that built it,
// every arena sized once and every memory verdict judged on the evaluator's
// own Estimate, what is left is per sweep the layout, the evaluators and
// the candidates, and per key its cost model (a struct and one block of
// stage FLOPs, device rates and link times) and, on a key's first shape,
// the mapping's tables and the cap table. The rows measure 188, 112 and 187
// for the exhaustive, top-K and prune rows (191, 117 and 191 under -race:
// nothing on the path draws from a sync.Pool), and each budget is its
// -race count plus the margin the budgets kept before: 9, 4 and 8. The
// prune row's OOM keys skip the simulation, and judging memory first on the
// schedule's activation peaks allocates nothing; it was 265 while a memory
// replay ran in front of the simulator. The rows were 206, 119 and 205
// while each (scheme, P) shape built a closure over its cap table, 212, 126
// and 211 while the Generator replayed every compile for deadlocks, 218, 132 and
// 217 while each evaluator's schedule compiler grew an event heap by
// append, 440, 214 and 501 when the cost model held
// P×S time tables, every key allocated its memory estimate and mappings
// were closures, and 3 201, 966 and 3 805 before the schedules were
// compiled in place.
func TestColdSweepAllocsPinned(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	for _, tc := range []struct {
		name   string
		topK   int
		prune  bool
		budget float64
	}{
		{"exhaustive", 0, false, 200},
		{"topk3", 3, false, 121},
		{"prune", 0, true, 199},
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

// TestSweepMemoryVerdictMatchesEvaluate checks, cell by cell, that the
// memory verdict a sweep judges on its evaluator's own Estimate is the one
// Plan.Evaluate returns with a fresh estimate: on the sweep_oom grid (GPT on
// TC×32, where most rows run out of memory) every simulated cell's PeakGB
// equals Evaluate's Memory.MaxGB() bit for bit and its OOM flag is !Fits.
// With Prune on, a cell the memory-first front end rejects is OOM too, and
// its PeakGB is the same exact peak.
func TestSweepMemoryVerdictMatchesEvaluate(t *testing.T) {
	cl := cluster.Tencent(32)
	model := nn.GPTStyle()
	for _, prune := range []bool{false, true} {
		s := enumerate(cl, model, topKSpace(1, 0, prune), nil)
		s.run(cl, model)
		oom, pruned := 0, 0
		for _, c := range s.measured {
			if c.Err != nil {
				t.Fatalf("%s P=%d: %v", c.Plan.Scheme, c.Plan.P, c.Err)
			}
			ev, err := c.Plan.Evaluate()
			if err != nil {
				t.Fatal(err)
			}
			want := ev.Memory.MaxGB()
			if c.OOM != !ev.Fits {
				t.Errorf("prune=%v %s P=%d: sweep OOM %v, Evaluate fits %v", prune, c.Plan.Scheme, c.Plan.P, c.OOM, ev.Fits)
			}
			if c.Pruned {
				pruned++
			}
			if math.Float64bits(c.PeakGB) != math.Float64bits(want) {
				t.Errorf("prune=%v %s P=%d: sweep PeakGB %v, Evaluate MaxGB %v", prune, c.Plan.Scheme, c.Plan.P, c.PeakGB, want)
			}
			if c.OOM {
				oom++
			}
		}
		if oom == 0 || prune != (pruned > 0) {
			t.Fatalf("prune=%v: %d OOM and %d pruned cells; the grid must cover both verdict paths", prune, oom, pruned)
		}
	}
}

// TestWarmTierSweepAllocsPinned pins what a fully cache-served sweep
// allocates: a fresh Tuner over a tier that holds every key of the Fig 10
// grid, walked on the caller's goroutine. Nothing is computed, so what is
// left is the layout, the one MultiGet and the ranking the sweep returns —
// no evaluator (they are built on first checkout), no per-hit heap copy
// (hits live in the memo slab), and an LRU that seeds into one slab. About
// 60 of the objects are the Loopback's own encode/decode of each entry.
// The budget is the measured count (101, the same under -race) plus 5 %.
func TestWarmTierSweepAllocsPinned(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	space := topKSpace(1, 0, false)
	tier := cachewire.NewLoopback(0)
	want := NewTuner(TunerOptions{Remote: tier}).AutoTune(cl, model, space)
	var got []Candidate
	before := simRuns.Load()
	allocs := testing.AllocsPerRun(5, func() {
		got = NewTuner(TunerOptions{Remote: tier}).AutoTune(cl, model, space)
	})
	if d := simRuns.Load() - before; d != 0 {
		t.Fatalf("warm tier sweeps issued %d simulations, want 0", d)
	}
	candidatesEqual(t, "tier-served sweep", got, want)
	const budget = 106
	t.Logf("warm tier sweep: %.0f objects (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("a warm tier sweep allocates %.0f objects, budget %d", allocs, budget)
	}
}

// TestTunerRepeatSweepAllocsPinned pins a repeat sweep on one Tuner, every
// key served from its own LRU: no simulation, and what is left is the
// layout and the ranking it returns. The budget is the measured count (19,
// 20 under -race) plus one.
func TestTunerRepeatSweepAllocsPinned(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	space := topKSpace(1, 0, false)
	tuner := NewTuner(TunerOptions{})
	want := tuner.AutoTune(cl, model, space)
	var got []Candidate
	before := simRuns.Load()
	allocs := testing.AllocsPerRun(5, func() { got = tuner.AutoTune(cl, model, space) })
	if d := simRuns.Load() - before; d != 0 {
		t.Fatalf("repeat sweeps issued %d simulations, want 0", d)
	}
	candidatesEqual(t, "repeat sweep", got, want)
	const budget = 20
	t.Logf("repeat sweep: %.0f objects (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("a repeat sweep allocates %.0f objects, budget %d", allocs, budget)
	}
}

// TestEvaluateAllocsPinned pins one standalone Plan.Evaluate, the unit of
// work a sweep cell costs outside a sweep: a schedule compiled on a
// single-use evaluator's Generator, its cost model, one simulation and the
// memory estimate. It measures 33 (35 under -race), and the budget is the
// -race count plus the margin of 3 it kept before; it measured 34 while
// each shape built a closure over its cap table, 40 while Evaluate compiled
// a Validate-proven one-shot schedule and 46 while the schedule compiler
// grew an event heap by append.
func TestEvaluateAllocsPinned(t *testing.T) {
	plan := Plan{Scheme: "hanayo-w2", Cluster: cluster.TACC(8),
		Model: nn.BERTStyle(), P: 8, D: 1, B: 16, MicroRows: 2}
	allocs := testing.AllocsPerRun(5, func() {
		e, err := plan.Evaluate()
		if err != nil {
			t.Fatal(err)
		}
		if e.Throughput <= 0 {
			t.Fatal("zero throughput")
		}
	})
	const budget = 38
	t.Logf("Evaluate: %.0f objects (budget %d)", allocs, budget)
	if allocs > budget {
		t.Errorf("Plan.Evaluate allocates %.0f objects, budget %d", allocs, budget)
	}
}

// TestEvalPoolLazyLIFO pins the pool discipline: evaluators are built on
// first checkout and handed out most recently checked in first, so serial
// sweeps through a wide Tuner keep reusing one warm evaluator; checkout
// blocks at the pool's width and resumes on a checkin.
func TestEvalPoolLazyLIFO(t *testing.T) {
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	tn := NewTuner(TunerOptions{Runners: 4, CacheEntries: -1})
	for _, b := range []int{4, 8, 4} {
		tn.AutoTune(cl, model, SearchSpace{PD: [][2]int{{4, 4}, {8, 2}}, Waves: []int{1, 2}, B: b, MicroRows: 1, Workers: 1})
	}
	if n := len(tn.pool.free); n != 1 {
		t.Fatalf("serial sweeps through a Runners: 4 Tuner built %d evaluators, want 1", n)
	}

	p := &evalPool{sem: make(chan struct{}, 2)}
	a, b := p.checkout(), p.checkout()
	if a == b {
		t.Fatal("two checkouts shared one evaluator")
	}
	got := make(chan *evaluator, 1)
	go func() { got <- p.checkout() }()
	select {
	case <-got:
		t.Fatal("a checkout past the pool's width did not block")
	case <-time.After(20 * time.Millisecond):
	}
	p.checkin(a)
	select {
	case ev := <-got:
		if ev != a {
			t.Fatal("the blocked checkout did not receive the evaluator just checked in")
		}
		p.checkin(ev)
	case <-time.After(5 * time.Second):
		t.Fatal("a blocked checkout did not resume after a checkin")
	}
	p.checkin(b)
	if ev := p.checkout(); ev != b {
		t.Fatal("checkout must return the evaluator checked in last")
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
