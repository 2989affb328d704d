package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/cluster"
	"repro/internal/nn"
)

// fig10Space is the OOM-heavy Fig 10 search space (batch sized to press
// against TACC's 40 GB devices) used by the pruning and service tests.
func fig10Space(workers int, prune bool) SearchSpace {
	return SearchSpace{
		PD:        [][2]int{{8, 4}, {16, 2}, {32, 1}},
		Waves:     []int{1, 2, 4},
		B:         16,
		MicroRows: 2,
		Workers:   workers,
		Prune:     prune,
	}
}

// TestPruneSkipsSimForOOMCells is the acceptance-criteria test: with
// Prune on, OOM cells never invoke sim.Run — the sweep issues exactly one
// simulation per feasible unique key — yet every pruned cell still appears
// in the ranking as an OOM candidate. The simRuns hook is process-global,
// so this test must not run in parallel with other simulating tests.
func TestPruneSkipsSimForOOMCells(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()

	// Count feasible unique (scheme, P, B) keys over the FULL grid — the
	// sweep's wave-group reduction hides non-best waves from the candidate
	// list, but their keys are still evaluated.
	space := fig10Space(4, true)
	feasibleKeys, oomKeys := 0, 0
	for _, pd := range space.PD {
		for _, scheme := range []string{"gpipe", "dapple", "chimera-wave",
			"hanayo-w1", "hanayo-w2", "hanayo-w4"} {
			plan := Plan{Scheme: scheme, Cluster: cl, Model: model,
				P: pd[0], D: pd[1], B: space.B, MicroRows: space.MicroRows}
			e, err := plan.Evaluate()
			if err != nil {
				t.Fatalf("%s P=%d: %v", scheme, pd[0], err)
			}
			if e.Fits {
				feasibleKeys++
			} else {
				oomKeys++
			}
		}
	}
	if oomKeys == 0 {
		t.Fatal("this space must contain OOM cells for the pruning test to bite")
	}

	before := simRuns.Load()
	pruned := AutoTune(cl, model, space)
	if got := simRuns.Load() - before; int(got) != feasibleKeys {
		t.Fatalf("pruned sweep issued %d simulations, want one per feasible key = %d",
			got, feasibleKeys)
	}

	oomSeen := 0
	for _, c := range pruned {
		if c.OOM {
			oomSeen++
			if !c.Pruned {
				t.Errorf("%s P=%d D=%d: OOM cell not marked Pruned under Prune", c.Plan.Scheme, c.Plan.P, c.Plan.D)
			}
			if c.Throughput != 0 {
				t.Errorf("%s P=%d D=%d: OOM cell has throughput %g", c.Plan.Scheme, c.Plan.P, c.Plan.D, c.Throughput)
			}
			// The peak must prove infeasibility: above the 95% margin of
			// TACC's 40 GB devices (weights included).
			if c.PeakGB <= 40*memMargin {
				t.Errorf("%s P=%d D=%d: pruned PeakGB %.1f does not exceed the 38 GB budget",
					c.Plan.Scheme, c.Plan.P, c.Plan.D, c.PeakGB)
			}
		} else if c.Pruned {
			t.Errorf("%s P=%d D=%d: feasible cell marked Pruned", c.Plan.Scheme, c.Plan.P, c.Plan.D)
		}
	}
	if oomSeen == 0 {
		t.Fatal("pruned sweep dropped its OOM cells from the ranking")
	}
}

// TestPruneMatchesUnprunedRanking asserts pruning is output-invariant on
// the parallel Fig 10 sweep: the ranking equals the unpruned one in every
// field but Pruned, OOM peaks included, and only OOM rows are Pruned.
func TestPruneMatchesUnprunedRanking(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	unpruned := AutoTune(cl, model, fig10Space(4, false))
	pruned := AutoTune(cl, model, fig10Space(4, true))
	prunedMatchesUnpruned(t, "fig10", pruned, unpruned)
}

// candidatesEqual compares two rankings field-for-field.
func candidatesEqual(t *testing.T, label string, got, want []Candidate) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d candidates, want %d", label, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.Plan.Scheme != w.Plan.Scheme || g.Plan.P != w.Plan.P || g.Plan.D != w.Plan.D ||
			g.Throughput != w.Throughput || g.PeakGB != w.PeakGB || g.OOM != w.OOM {
			t.Fatalf("%s rank %d: (%s P=%d D=%d thr=%g peak=%g oom=%v) want (%s P=%d D=%d thr=%g peak=%g oom=%v)",
				label, i, g.Plan.Scheme, g.Plan.P, g.Plan.D, g.Throughput, g.PeakGB, g.OOM,
				w.Plan.Scheme, w.Plan.P, w.Plan.D, w.Throughput, w.PeakGB, w.OOM)
		}
	}
}

// TestTunerMatchesAutoTuneAndCachesRepeats asserts the service layer is a
// pure optimization: a Tuner-served sweep ranks identically to the plain
// AutoTune, a repeated sweep is served entirely from the cross-sweep cache
// (zero new simulations), and the results still match.
func TestTunerMatchesAutoTuneAndCachesRepeats(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	space := fig10Space(4, false)
	want := AutoTune(cl, model, space)

	tn := NewTuner(TunerOptions{Runners: 4})
	first := tn.AutoTune(cl, model, space)
	candidatesEqual(t, "first served sweep", first, want)
	if tn.CacheLen() == 0 {
		t.Fatal("the first sweep must populate the cross-sweep cache")
	}

	before := simRuns.Load()
	// A fresh — but fingerprint-identical — cluster must hit the cache:
	// the service keys by content, not pointer identity.
	second := tn.AutoTune(cluster.TACC(32), model, space)
	if got := simRuns.Load() - before; got != 0 {
		t.Fatalf("repeated sweep issued %d simulations, want 0 (cross-sweep cache)", got)
	}
	candidatesEqual(t, "repeated served sweep", second, want)

	// A different workload must NOT be served from stale entries.
	other := tn.AutoTune(cl, model, SearchSpace{
		PD: [][2]int{{8, 4}}, Waves: []int{1, 2}, B: 8, MicroRows: 1, Workers: 2,
	})
	ref := AutoTune(cl, model, SearchSpace{
		PD: [][2]int{{8, 4}}, Waves: []int{1, 2}, B: 8, MicroRows: 1, Workers: 2,
	})
	candidatesEqual(t, "different-space sweep", other, ref)
}

// TestTunerConcurrentSweeps serves many overlapping sweeps from multiple
// goroutines through one Tuner — the shared cache and the bounded
// evaluator pool are the concurrent shared state the race detector walks.
func TestTunerConcurrentSweeps(t *testing.T) {
	model := nn.BERTStyle()
	space := SearchSpace{
		PD: [][2]int{{4, 4}, {8, 2}}, Waves: []int{1, 2}, B: 8, MicroRows: 1, Workers: 2,
	}
	want := AutoTune(cluster.TACC(16), model, space)

	tn := NewTuner(TunerOptions{Runners: 2})
	const sweeps = 6
	results := make([][]Candidate, sweeps)
	var wg sync.WaitGroup
	for i := 0; i < sweeps; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i] = tn.AutoTune(cluster.TACC(16), model, space)
		}(i)
	}
	wg.Wait()
	for i, got := range results {
		candidatesEqual(t, "concurrent sweep", got, want)
		_ = i
	}
}

// TestTunerConcurrentIdenticalSweepsDedup asserts the in-flight table:
// N concurrent identical sweeps through one cold Tuner must issue exactly
// one simulation per unique key in total — followers wait on the leader's
// flight instead of re-simulating. (Not t.Parallel: the simRuns hook is
// process-global.)
func TestTunerConcurrentIdenticalSweepsDedup(t *testing.T) {
	model := nn.BERTStyle()
	space := SearchSpace{
		PD: [][2]int{{4, 4}, {8, 2}}, Waves: []int{1, 2}, B: 8, MicroRows: 1, Workers: 2,
	}
	// 5 schemes (3 base + 2 waves) × P ∈ {4, 8} at fixed B → 10 keys.
	const uniqueKeys = 10
	tn := NewTuner(TunerOptions{Runners: 2})
	before := simRuns.Load()
	var wg sync.WaitGroup
	for i := 0; i < 6; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tn.AutoTune(cluster.TACC(16), model, space)
		}()
	}
	wg.Wait()
	if got := simRuns.Load() - before; got != uniqueKeys {
		t.Fatalf("6 concurrent identical sweeps issued %d simulations, want %d (in-flight dedup)",
			got, uniqueKeys)
	}

	// The same under bound-and-prune, where flights carry the one rule the
	// memo does: a deadline-aborted leader lands its flight empty and its
	// followers measure for themselves. Each sweep walks serially, so which
	// cells complete and which abort is a function of the grid alone (every
	// tier serves exact results): across the six, every complete result is
	// simulated exactly once and an aborted cell at most once per sweep.
	// Every top 2 is exact, and no aborted verdict reached a follower or the
	// cache — the exhaustive sweep the same Tuner serves afterwards simulates
	// exactly the keys still open and equals AutoTune.
	cl := cluster.TACC(16)
	want := AutoTune(cl, model, space)
	bounded := space
	bounded.TopK, bounded.Workers = 2, 1
	before = simRuns.Load()
	AutoTune(cl, model, bounded)
	serial := simRuns.Load() - before // complete + aborted simulations of one sweep

	tn = NewTuner(TunerOptions{Runners: 2})
	before = simRuns.Load()
	results := make([][]Candidate, 6)
	for i := range results {
		wg.Add(1)
		go func() {
			defer wg.Done()
			results[i] = tn.AutoTune(cl, model, bounded)
		}()
	}
	wg.Wait()
	complete := int64(tn.CacheLen())
	aborted := serial - complete
	if aborted <= 0 || complete <= 0 {
		t.Fatalf("grid no longer exercises both outcomes: %d complete, %d aborted", complete, aborted)
	}
	if got := simRuns.Load() - before; got < serial || got > complete+6*aborted {
		t.Fatalf("6 concurrent identical TopK sweeps issued %d simulations, want %d complete once + %d aborted at most once per sweep",
			got, complete, aborted)
	}
	for i, got := range results {
		if !reflect.DeepEqual(got[:2], want[:2]) {
			t.Fatalf("concurrent TopK sweep %d: top-2 differs from exhaustive\ngot:  %+v\nwant: %+v", i, got[:2], want[:2])
		}
	}
	before = simRuns.Load()
	if got := tn.AutoTune(cl, model, space); !reflect.DeepEqual(got, want) {
		t.Fatalf("exhaustive sweep after the TopK sweeps diverges — an aborted verdict leaked\ngot:  %+v\nwant: %+v", got, want)
	}
	if got := simRuns.Load() - before; got != uniqueKeys-complete {
		t.Fatalf("exhaustive sweep after the TopK sweeps issued %d simulations, want %d (the keys no sweep completed)",
			got, uniqueKeys-complete)
	}
}

// TestTunerCacheBoundedEviction forces a tiny cache through keys of two
// different workloads: correctness must hold under eviction and the entry
// count must respect the bound.
func TestTunerCacheBoundedEviction(t *testing.T) {
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	const bound = 16 // below the 20 keys the two workloads name
	tn := NewTuner(TunerOptions{Runners: 2, CacheEntries: bound})
	for _, b := range []int{4, 8} {
		space := SearchSpace{PD: [][2]int{{4, 4}, {8, 2}}, Waves: []int{1, 2}, B: b, MicroRows: 1, Workers: 2}
		got := tn.AutoTune(cl, model, space)
		candidatesEqual(t, "bounded-cache sweep", got, AutoTune(cl, model, space))
	}
	if n := tn.CacheLen(); n > bound {
		t.Fatalf("cache holds %d entries, bound is %d", n, bound)
	}

	// A bound smaller than one sweep's key set must hold exactly too.
	tight := NewTuner(TunerOptions{Runners: 2, CacheEntries: 4})
	space := SearchSpace{PD: [][2]int{{4, 4}, {8, 2}}, Waves: []int{1, 2}, B: 4, MicroRows: 1, Workers: 2}
	candidatesEqual(t, "tight-cache sweep", tight.AutoTune(cl, model, space), AutoTune(cl, model, space))
	if n := tight.CacheLen(); n > 4 {
		t.Fatalf("cache holds %d entries, configured total bound is 4", n)
	}
}

// TestTunerDisabledCache keeps only the evaluator pool: results must still
// match and the cache must stay empty.
func TestTunerDisabledCache(t *testing.T) {
	cl := cluster.TACC(8)
	model := nn.BERTStyle()
	space := SearchSpace{PD: [][2]int{{4, 2}, {8, 1}}, Waves: []int{1, 2}, B: 4, MicroRows: 1, Workers: 2}
	tn := NewTuner(TunerOptions{Runners: 2, CacheEntries: -1})
	candidatesEqual(t, "cacheless sweep", tn.AutoTune(cl, model, space), AutoTune(cl, model, space))
	if tn.CacheLen() != 0 {
		t.Fatal("disabled cache must stay empty")
	}
}

// TestTunerPrunedSweeps runs the OOM-heavy space through the service with
// pruning on, twice: the second pass must be all cache hits and both must
// match the standalone pruned sweep.
func TestTunerPrunedSweeps(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	space := fig10Space(4, true)
	want := AutoTune(cl, model, space)
	tn := NewTuner(TunerOptions{Runners: 4})
	candidatesEqual(t, "pruned served sweep", tn.AutoTune(cl, model, space), want)
	before := simRuns.Load()
	candidatesEqual(t, "pruned repeat", tn.AutoTune(cl, model, space), want)
	if got := simRuns.Load() - before; got != 0 {
		t.Fatalf("repeated pruned sweep issued %d simulations, want 0", got)
	}
}

// BenchmarkTunerWarmSweepParallel runs concurrent sweeps through one shared
// Tuner whose LRU already holds the grid: every lookup takes the cache's
// one lock, so this is where contention on it would show.
func BenchmarkTunerWarmSweepParallel(b *testing.B) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	space := topKSpace(1, 0, false)
	tn := NewTuner(TunerOptions{})
	tn.AutoTune(cl, model, space)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			tn.AutoTune(cl, model, space)
		}
	})
}
