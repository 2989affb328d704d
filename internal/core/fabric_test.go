package core

import (
	"net"
	"reflect"
	"sync"
	"testing"

	"repro/internal/cachewire"
	"repro/internal/cluster"
	"repro/internal/nn"
)

// TestSweepPrefetchFramesO1 is the frame-count hook behind the batched
// tier's whole point: a shard sweep costs O(1) remote round trips, not
// O(cells). shardSpace enumerates 27 unique evaluation keys (9 schemes ×
// 3 PD shapes); the sweep pays two frames total — prefetch MultiGet plus
// flush MultiPut — and a warm repeat none at all. (Not t.Parallel: the
// frame counter is process-global, like the simRuns hook.)
func TestSweepPrefetchFramesO1(t *testing.T) {
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	space := shardSpace(8, false)
	want := AutoTune(cl, model, space)

	lb := cachewire.NewLoopback(0)
	first := NewTuner(TunerOptions{Runners: 2, Remote: lb})
	before := cachewire.Frames()
	candidatesEqual(t, "batched cold sweep", first.AutoTune(cl, model, space), want)
	if d := cachewire.Frames() - before; d != 2 {
		t.Fatalf("cold batched sweep cost %d frames, want exactly 2 (prefetch + flush)", d)
	}

	// Same Tuner again: the local cache answers everything during key
	// enumeration, so the sweep never touches the wire.
	before = cachewire.Frames()
	candidatesEqual(t, "warm repeat", first.AutoTune(cl, model, space), want)
	if d := cachewire.Frames() - before; d != 0 {
		t.Fatalf("locally warm repeat cost %d frames, want 0", d)
	}

	// A cold process sharing only the tier: one prefetch resolves the
	// whole grid, nothing fresh to flush, zero simulations.
	second := NewTuner(TunerOptions{Runners: 2, Remote: lb})
	before = cachewire.Frames()
	sims := simRuns.Load()
	candidatesEqual(t, "tier-warm cold repeat", second.AutoTune(cl, model, space), want)
	if d := cachewire.Frames() - before; d != 1 {
		t.Fatalf("tier-warm cold repeat cost %d frames, want exactly 1 (prefetch only)", d)
	}
	if d := simRuns.Load() - sims; d != 0 {
		t.Fatalf("tier-warm cold repeat issued %d simulations, want 0", d)
	}
}

// TestRerankFramesO1: a replan goes through the same batched window as
// any sweep, so a cold Rerank against a remote tier costs one MultiGet
// and one MultiPut whatever K is, and issues exactly the cold top-K
// sweep's simulations. A deadline-aborted verdict never reaches the tier,
// so an exhaustive sweep then fills it, and a fresh Tuner on the filled
// tier simulates nothing, in at most the same two frames. The top K is the
// exhaustive AutoTune's each time. (Not t.Parallel: process-global
// counters.)
func TestRerankFramesO1(t *testing.T) {
	cl := cluster.TACC(9).WithoutDevice(3)
	model := nn.BERTStyle()
	exhaustive := rerankWideSpace(2, 0)
	want := AutoTune(cl, model, exhaustive)

	for topK := 1; topK <= 3; topK++ {
		space := rerankWideSpace(1, topK)
		k := positives(want, topK)
		lb := cachewire.NewLoopback(0)
		sims := SimRuns()
		AutoTune(cl, model, space)
		coldSims := SimRuns() - sims

		before := cachewire.Frames()
		got, stats := NewTuner(TunerOptions{Runners: 2, Remote: lb}).Rerank(cl, model, space)
		if d := cachewire.Frames() - before; d > 2 {
			t.Fatalf("K=%d: a cold Rerank cost %d frames, want at most 2 (one MultiGet, one MultiPut)", topK, d)
		}
		if stats.SweepSims != coldSims {
			t.Fatalf("K=%d: a cold Rerank issued %d simulations, the cold top-%d sweep %d", topK, stats.SweepSims, topK, coldSims)
		}
		if !reflect.DeepEqual(got[:k], want[:k]) {
			t.Fatalf("K=%d: cold Rerank top-%d diverges from exhaustive AutoTune\ngot:  %+v\nwant: %+v", topK, k, got[:k], want[:k])
		}

		NewTuner(TunerOptions{Runners: 2, Remote: lb}).AutoTune(cl, model, exhaustive)
		before = cachewire.Frames()
		got, stats = NewTuner(TunerOptions{Runners: 2, Remote: lb}).Rerank(cl, model, space)
		if d := cachewire.Frames() - before; d > 2 {
			t.Fatalf("K=%d: a tier-warm Rerank cost %d frames, want at most 2", topK, d)
		}
		if stats.SweepSims != 0 {
			t.Fatalf("K=%d: a fresh Tuner on the filled tier issued %d simulations, want 0", topK, stats.SweepSims)
		}
		if !reflect.DeepEqual(got[:k], want[:k]) {
			t.Fatalf("K=%d: tier-warm Rerank top-%d diverges from exhaustive AutoTune\ngot:  %+v\nwant: %+v", topK, k, got[:k], want[:k])
		}
	}
}

// killAfter wraps a ring so that completing the first batched read pulls
// the trigger — the test's stand-in for a node dying between a sweep's
// prefetch and its flush.
type killAfter struct {
	*cachewire.Ring
	kill func()
	once sync.Once
}

func (k *killAfter) MultiGet(keys []uint64, out []cachewire.Entry, ok []bool) error {
	err := k.Ring.MultiGet(keys, out, ok)
	k.once.Do(k.kill)
	return err
}

// TestRingNodeDiesMidSweep is the fault-injection satellite: a 3-node
// TCP ring (replication 2) loses one node between a cold sweep's
// prefetch and its end-of-sweep flush. The sweep must complete with
// results identical to the no-remote run, the flush must land every
// evaluation on the survivors, only the dead node may accumulate errors
// — and a later cold Tuner must still sweep with zero simulations,
// because replication kept a live copy of every key.
func TestRingNodeDiesMidSweep(t *testing.T) {
	var servers []*cachewire.Server
	var addrs []string
	for i := 0; i < 3; i++ {
		l, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		srv := cachewire.NewServer(0)
		go srv.Serve(l)
		t.Cleanup(func() { srv.Close() })
		servers = append(servers, srv)
		addrs = append(addrs, l.Addr().String())
	}
	ring, err := cachewire.DialRing(2, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ring.Close() })

	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	space := SearchSpace{PD: [][2]int{{4, 4}, {8, 2}}, Waves: []int{1, 2}, B: 8, MicroRows: 1, Workers: 2}
	want := AutoTune(cl, model, space)

	trap := &killAfter{Ring: ring, kill: func() { servers[0].Close() }}
	swept := NewTuner(TunerOptions{Runners: 2, Remote: trap})
	candidatesEqual(t, "sweep that loses a node", swept.AutoTune(cl, model, space), want)

	errs := ring.Errors()
	if errs[0].Errors == 0 {
		t.Fatalf("dead node %s shows no errors after the flush: %+v", addrs[0], errs)
	}
	if errs[1].Errors != 0 || errs[2].Errors != 0 {
		t.Fatalf("healthy nodes charged with errors: %+v", errs)
	}

	// Replication 2 over distinct nodes means every key kept at least one
	// live copy: a cold Tuner resolves the whole grid off the survivors.
	late := NewTuner(TunerOptions{Runners: 2, Remote: ring})
	before := simRuns.Load()
	candidatesEqual(t, "cold sweep off the survivors", late.AutoTune(cl, model, space), want)
	if d := simRuns.Load() - before; d != 0 {
		t.Fatalf("post-failure cold sweep issued %d simulations, want 0 (replication)", d)
	}
}

// TestRingTierShardParity runs the acceptance-criteria merge shape with
// the ring tier enabled: shard workers publishing through a replicated
// loopback ring must merge bit-for-bit with plain AutoTune, exactly as
// they do against a single node.
func TestRingTierShardParity(t *testing.T) {
	nodes := []cachewire.RingNode{
		{Name: "a", Cache: cachewire.NewLoopback(0)},
		{Name: "b", Cache: cachewire.NewLoopback(0)},
		{Name: "c", Cache: cachewire.NewLoopback(0)},
	}
	ring, err := cachewire.NewRing(2, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	space := shardSpace(16, true) // B=16 presses into OOM cells
	want := AutoTune(cl, model, space)

	const n = 2
	parts := make([][]Candidate, n)
	for i := 0; i < n; i++ {
		worker := NewTuner(TunerOptions{Runners: 2, Remote: ring})
		parts[i] = worker.AutoTuneShard(cl, model, space.Shard(i, n))
	}
	candidatesEqual(t, "ring-backed merged shards", MergeShards(parts...), want)

	late := NewTuner(TunerOptions{Runners: 2, Remote: ring})
	before := simRuns.Load()
	candidatesEqual(t, "ring-served late sweep", late.AutoTune(cl, model, space), want)
	if d := simRuns.Load() - before; d != 0 {
		t.Fatalf("ring-served late sweep issued %d simulations, want 0", d)
	}
	for _, ne := range ring.Errors() {
		if ne.Errors != 0 {
			t.Fatalf("healthy loopback ring counted errors: %+v", ring.Errors())
		}
	}
}
