package core

import (
	"math/rand"
	"net"
	"reflect"
	"slices"
	"testing"

	"repro/internal/cachewire"
	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/sim"
)

// shardSpace is a mid-sized grid over all 9 schemes of the exec golden
// suite — six named regular schemes plus the hanayo-w{1,2,4} wave
// group — with (at B=16) OOM cells: every candidate kind the merge has
// to carry.
func shardSpace(b int, prune bool) SearchSpace {
	return SearchSpace{
		Schemes:   []string{"gpipe", "dapple", "chimera", "chimera-wave", "gems", "interleaved-v2"},
		PD:        [][2]int{{4, 4}, {8, 2}, {16, 1}},
		Waves:     []int{1, 2, 4},
		B:         b,
		MicroRows: 2,
		Workers:   4,
		Prune:     prune,
	}
}

// TestShardMergeParity is the acceptance-criteria test: for n ∈ {1, 2, 4}
// (plus an uneven 3 and 7, and 64 — more shards than the grid's 21 units,
// so most are empty), evaluating the n shards of a space independently
// and merging them is bit-for-bit identical to the single-process
// AutoTune — every field of every candidate, including tie order.
func TestShardMergeParity(t *testing.T) {
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	for _, prune := range []bool{false, true} {
		space := shardSpace(8, prune)
		want := AutoTune(cl, model, space)
		for _, n := range []int{1, 2, 3, 4, 7, 64} {
			parts := make([][]Candidate, n)
			for i := 0; i < n; i++ {
				parts[i] = AutoTuneShard(cl, model, space.Shard(i, n))
			}
			got := MergeShards(parts...)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("prune=%v n=%d: merged shard ranking differs from AutoTune\ngot:  %+v\nwant: %+v",
					prune, n, got, want)
			}
		}
	}
}

// TestShardsPartitionTheGrid asserts the slices are genuinely disjoint
// and exhaustive: shard sizes sum to the full candidate count and no
// (scheme, P, D) cell appears twice.
func TestShardsPartitionTheGrid(t *testing.T) {
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	space := shardSpace(8, false)
	full := AutoTune(cl, model, space)
	const n = 3
	seen := map[[3]interface{}]bool{}
	total := 0
	for i := 0; i < n; i++ {
		part := AutoTuneShard(cl, model, space.Shard(i, n))
		total += len(part)
		for _, c := range part {
			k := [3]interface{}{c.Plan.Scheme, c.Plan.P, c.Plan.D}
			if seen[k] {
				t.Fatalf("cell %v produced by two shards", k)
			}
			seen[k] = true
		}
	}
	if total != len(full) {
		t.Fatalf("shards produced %d candidates, full sweep %d", total, len(full))
	}
}

// cellID is one laid-out cell as the shard cut sees it: unit is the cell's
// grid unit in the unsharded layout.
type cellID struct {
	scheme               string
	p, d, waves, unit, w int
}

// shardCells lays out shard i of n of space (the whole grid at n = 1)
// without evaluating anything, numbering units from offset, and returns the
// cells, the shard's unit count and its weight.
func shardCells(space SearchSpace, i, n, offset int) (cells []cellID, units, weight int) {
	s := enumerate(cluster.TACC(16), nn.BERTStyle(), space.Shard(i, n), nil)
	for _, c := range s.cells {
		cells = append(cells, cellID{c.plan.Scheme, c.plan.P, c.plan.D, c.waves, offset + c.slot, c.size})
		weight += c.size
	}
	return cells, s.slots, weight
}

// TestShardCutProperty pins the work-weighted partition over random grids
// — PD lists (invalid cells included), scheme sets (with a name Generate
// rejects, a unit of weight 0), wave ladders and B — for n ∈ 1…8: the
// shards are contiguous unit ranges that tile the grid in shard order (so
// concatenating them is the unsharded layout), the cut is deterministic,
// and no shard weighs more than W/n plus the heaviest unit.
func TestShardCutProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	pool := []string{"gpipe", "dapple", "chimera", "chimera-wave", "gems", "zbh1", "interleaved-v2", "hanayo-w2", "nope"}
	for trial := 0; trial < 150; trial++ {
		space := SearchSpace{B: 2 * (1 + rng.Intn(8)), MicroRows: 1, Schemes: []string{}, Waves: []int{}}
		for range 1 + rng.Intn(5) {
			space.PD = append(space.PD, [2]int{1 << rng.Intn(5), 1 << rng.Intn(3)})
		}
		for _, s := range pool {
			if rng.Intn(2) == 0 {
				space.Schemes = append(space.Schemes, s)
			}
		}
		for _, w := range []int{1, 2, 4, 8} {
			if rng.Intn(2) == 0 {
				space.Waves = append(space.Waves, w)
			}
		}
		full, units, total := shardCells(space, 0, 1, 0)
		unitW := make([]int, units)
		for _, c := range full {
			unitW[c.unit] += c.w
		}
		heaviest := slices.Max(append(unitW, 0))
		for n := 1; n <= 8; n++ {
			var tiled []cellID
			offset := 0
			for i := 0; i < n; i++ {
				cells, owned, weight := shardCells(space, i, n, offset)
				again, _, _ := shardCells(space, i, n, offset)
				if !reflect.DeepEqual(cells, again) {
					t.Fatalf("trial %d: Shard(%d, %d) is not deterministic", trial, i, n)
				}
				if n*weight > total+n*heaviest {
					t.Fatalf("trial %d: Shard(%d, %d) weighs %d, over W/n + max unit = %d/%d + %d",
						trial, i, n, weight, total, n, heaviest)
				}
				tiled = append(tiled, cells...)
				offset += owned
			}
			if offset != units || !reflect.DeepEqual(tiled, full) {
				t.Fatalf("trial %d: %d shards do not tile the grid in order (%d of %d units)\ngot:  %v\nwant: %v",
					trial, n, offset, units, tiled, full)
			}
		}
	}
}

// TestShardCutDefaultGrid pins the cut on the hanayo-tuned CLI's default
// grid (tacc×32, B=16, two workers): the two shards carry work within 5 %
// of each other, and together still issue exactly the grid's 35
// simulations. (Not t.Parallel: the simRuns hook is process-global.)
func TestShardCutDefaultGrid(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	space := SearchSpace{B: 16, MicroRows: 2, Workers: 1}
	var weight [2]int
	before := simRuns.Load()
	for i := range weight {
		for _, c := range enumerate(cl, model, space.Shard(i, 2), nil).cells {
			weight[i] += c.size
		}
		AutoTuneShard(cl, model, space.Shard(i, 2))
	}
	t.Logf("shard weights %d / %d compute tasks", weight[0], weight[1])
	if d := simRuns.Load() - before; d != 35 {
		t.Fatalf("the two shards issued %d simulations, want 35", d)
	}
	if lo, hi := min(weight[0], weight[1]), max(weight[0], weight[1]); 20*(hi-lo) > hi {
		t.Fatalf("shard weights %d and %d are more than 5 %% apart", weight[0], weight[1])
	}
}

// TestShardValidation pins the Shard contract: n <= 1 clears sharding,
// out-of-range indices panic.
func TestShardValidation(t *testing.T) {
	var s SearchSpace
	if sh := s.Shard(0, 1); sh.shardCount != 0 {
		t.Fatalf("Shard(0,1) must clear sharding, got count %d", sh.shardCount)
	}
	for _, bad := range [][2]int{{-1, 2}, {2, 2}, {5, 3}, {3, 1}, {0, 0}, {1, -2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Shard(%d, %d) did not panic", bad[0], bad[1])
				}
			}()
			s.Shard(bad[0], bad[1])
		}()
	}
}

// TestTunerRemoteTierZeroSims is the cross-process acceptance shape run
// through the in-process loopback tier: a second, cold Tuner sharing only
// the remote cache with the first must serve a repeat sweep without a
// single simulation, and rank identically. (Not t.Parallel: the simRuns
// hook is process-global.)
func TestTunerRemoteTierZeroSims(t *testing.T) {
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	space := shardSpace(8, false)
	want := AutoTune(cl, model, space)

	lb := cachewire.NewLoopback(0)
	first := NewTuner(TunerOptions{Runners: 2, Remote: lb})
	candidatesEqual(t, "remote-backed first sweep", first.AutoTune(cl, model, space), want)
	if lb.Len() == 0 {
		t.Fatal("first sweep must publish its evaluations to the remote tier")
	}

	second := NewTuner(TunerOptions{Runners: 2, Remote: lb})
	before := simRuns.Load()
	got := second.AutoTune(cluster.TACC(16), model, space)
	if d := simRuns.Load() - before; d != 0 {
		t.Fatalf("second Tuner issued %d simulations, want 0 (remote tier)", d)
	}
	candidatesEqual(t, "remote-served second sweep", got, want)
	if first.RemoteErrors()+second.RemoteErrors() != 0 {
		t.Fatalf("healthy loopback tier reported errors: %d + %d",
			first.RemoteErrors(), second.RemoteErrors())
	}
}

// TestShardedWorkersFillRemoteTier is the distributed-sweep story end to
// end, in-process: two shard workers (separate Tuners, as separate
// processes would be) split the grid, publish to one shared tier, and
// their merged ranking matches AutoTune; afterwards a third cold Tuner
// sweeps the FULL grid with zero simulations because every key is
// already in the shared tier — including pruned OOM verdicts.
func TestShardedWorkersFillRemoteTier(t *testing.T) {
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	space := shardSpace(16, true) // B=16 presses into OOM on TACC
	want := AutoTune(cl, model, space)

	lb := cachewire.NewLoopback(0)
	const n = 2
	parts := make([][]Candidate, n)
	for i := 0; i < n; i++ {
		worker := NewTuner(TunerOptions{Runners: 2, Remote: lb})
		parts[i] = worker.AutoTuneShard(cl, model, space.Shard(i, n))
	}
	merged := MergeShards(parts...)
	candidatesEqual(t, "merged remote-backed shards", merged, want)
	for i := range want {
		if merged[i].Pruned != want[i].Pruned {
			t.Fatalf("rank %d: Pruned=%v did not survive the wire, want %v",
				i, merged[i].Pruned, want[i].Pruned)
		}
	}

	late := NewTuner(TunerOptions{Runners: 2, Remote: lb})
	before := simRuns.Load()
	candidatesEqual(t, "late full sweep", late.AutoTune(cl, model, space), want)
	if d := simRuns.Load() - before; d != 0 {
		t.Fatalf("late full sweep issued %d simulations, want 0 (shards filled the tier)", d)
	}
}

// TestTunerRemoteTierOverTCP runs the same second-process-zero-sims
// assertion over the real wire: a cachewire.Server on an ephemeral
// loopback port, two Tuners with their own clients. Then the server goes
// away and a third sweep must still succeed — degraded to local-only,
// with RemoteErrors counting the failures.
func TestTunerRemoteTierOverTCP(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := cachewire.NewServer(0)
	go srv.Serve(l)
	addr := l.Addr().String()

	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	space := SearchSpace{PD: [][2]int{{4, 4}, {8, 2}}, Waves: []int{1, 2}, B: 8, MicroRows: 1, Workers: 2}
	want := AutoTune(cl, model, space)

	dial := func() *cachewire.Client {
		c, err := cachewire.Dial(addr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		return c
	}
	first := NewTuner(TunerOptions{Runners: 2, Remote: dial()})
	candidatesEqual(t, "tcp-backed first sweep", first.AutoTune(cl, model, space), want)
	if srv.Len() == 0 {
		t.Fatal("server holds no entries after the first sweep")
	}

	second := NewTuner(TunerOptions{Runners: 2, Remote: dial()})
	before := simRuns.Load()
	candidatesEqual(t, "tcp-served second sweep", second.AutoTune(cl, model, space), want)
	if d := simRuns.Load() - before; d != 0 {
		t.Fatalf("tcp-served repeat issued %d simulations, want 0", d)
	}
	if first.RemoteErrors()+second.RemoteErrors() != 0 {
		t.Fatalf("healthy tcp tier reported errors: %d + %d",
			first.RemoteErrors(), second.RemoteErrors())
	}

	// Kill the tier: sweeps must degrade, not fail. The client is dialed
	// while the server is still up; Close severs its pooled connection and
	// refuses redials.
	degraded := NewTuner(TunerOptions{Runners: 2, Remote: dial()})
	srv.Close()
	candidatesEqual(t, "degraded sweep", degraded.AutoTune(cl, model, space), want)
	if degraded.RemoteErrors() == 0 {
		t.Fatal("dead tier must surface in RemoteErrors")
	}
}

// TestTunerKeyHashStable pins the wire key: deterministic, sensitive to
// every field, and equal to a golden value so the hash cannot drift
// silently between builds that are supposed to share a cache tier. (If a
// deliberate format change lands, bump cachewire.Version alongside the
// golden.)
func TestTunerKeyHashStable(t *testing.T) {
	base := tunerKey{
		cluster: 0x1234_5678_9abc_def0,
		model:   nn.BERTStyle(),
		scheme:  "hanayo-w2",
		p:       8, b: 16, rows: 2,
	}
	if base.hash() != base.hash() {
		t.Fatal("hash is not deterministic")
	}
	const golden uint64 = 0xd03c6d1dbb24372a
	if got := base.hash(); got != golden {
		t.Fatalf("wire key hash drifted: got %#x, want %#x", got, golden)
	}
	mutants := []tunerKey{base, base, base, base, base, base}
	mutants[0].cluster++
	mutants[1].model.Hidden++
	mutants[2].scheme = "hanayo-w4"
	mutants[3].p = 16
	mutants[4].rows = 1
	mutants[5].faults = (&sim.FaultPlan{Events: []sim.FaultEvent{sim.SlowDown(0, 0.5, 0)}}).Fingerprint()
	for i, m := range mutants {
		if m.hash() == base.hash() {
			t.Errorf("mutant %d hashes like the base key", i)
		}
	}
}
