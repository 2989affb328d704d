package cachewire

import (
	"math/rand"
	"net"
	"testing"
)

// ringOfLoopbacks builds a ring over n in-process nodes and returns the
// node stores alongside, so tests can observe per-node placement.
func ringOfLoopbacks(t *testing.T, replication, n int) (*Ring, []*Loopback) {
	t.Helper()
	names := []string{"node-a", "node-b", "node-c", "node-d", "node-e"}
	var nodes []RingNode
	var lbs []*Loopback
	for i := 0; i < n; i++ {
		lb := NewLoopback(0)
		lbs = append(lbs, lb)
		nodes = append(nodes, RingNode{Name: names[i], Cache: lb})
	}
	r, err := NewRing(replication, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	return r, lbs
}

// TestNewRingValidation pins the constructor contract: empty rings,
// unnamed and nil-cache nodes and duplicate names are rejected;
// replication clamps into [1, len(nodes)] with 0 meaning min(2, n).
func TestNewRingValidation(t *testing.T) {
	if _, err := NewRing(1); err == nil {
		t.Error("empty ring accepted")
	}
	lb := NewLoopback(0)
	if _, err := NewRing(1, RingNode{Name: "", Cache: lb}); err == nil {
		t.Error("unnamed node accepted")
	}
	if _, err := NewRing(1, RingNode{Name: "x"}); err == nil {
		t.Error("nil-cache node accepted")
	}
	if _, err := NewRing(1, RingNode{Name: "x", Cache: lb}, RingNode{Name: "x", Cache: lb}); err == nil {
		t.Error("duplicate name accepted")
	}
	r, err := NewRing(9, RingNode{Name: "x", Cache: lb}, RingNode{Name: "y", Cache: lb})
	if err != nil || r.Replication() != 2 {
		t.Errorf("replication 9 over 2 nodes → %d, want clamp to 2 (err %v)", r.Replication(), err)
	}
	r, _ = NewRing(0, RingNode{Name: "x", Cache: lb})
	if r.Replication() != 1 {
		t.Errorf("default replication on 1 node = %d, want 1", r.Replication())
	}
	r, _ = NewRing(0, RingNode{Name: "x", Cache: lb}, RingNode{Name: "y", Cache: lb}, RingNode{Name: "z", Cache: lb})
	if r.Replication() != 2 {
		t.Errorf("default replication on 3 nodes = %d, want 2", r.Replication())
	}
}

// TestRingReplicatesAndBalances publishes many keys through the ring:
// every key must land on exactly `replication` nodes, every node must
// own a non-trivial share (consistent hashing with vnodes balances), and
// reads must return every entry bit-for-bit.
func TestRingReplicatesAndBalances(t *testing.T) {
	const replication, n, keys = 2, 3, 600
	r, lbs := ringOfLoopbacks(t, replication, n)
	rng := rand.New(rand.NewSource(11))
	ents := randEntries(rng, keys)
	for i, e := range ents {
		if err := put1(r, uint64(i)*0x9e3779b97f4a7c15+1, e); err != nil {
			t.Fatal(err)
		}
	}
	total := 0
	for i, lb := range lbs {
		got := lb.s.m.Len()
		total += got
		// A fair share is replication*keys/n = 400; vnode placement is
		// uneven but must not starve or swallow a node.
		if got < keys/4 || got > keys*2 {
			t.Errorf("node %d holds %d of %d placements", i, got, replication*keys)
		}
	}
	if total != replication*keys {
		t.Fatalf("placements total %d, want %d (every key on exactly %d nodes)",
			total, replication*keys, replication)
	}
	for i, e := range ents {
		got, ok, err := get1(r, uint64(i)*0x9e3779b97f4a7c15+1)
		if err != nil || !ok || !sameEntryBits(got, e) {
			t.Fatalf("key %d: %+v ok=%v err=%v", i, got, ok, err)
		}
	}
	for _, ne := range r.Errors() {
		if ne.Errors != 0 {
			t.Fatalf("healthy ring counted errors: %+v", r.Errors())
		}
	}
}

// TestRingPlacementIsStable pins the placement function: replica sets
// depend only on (key, name list, replication), so two independently
// built rings over the same names agree — the property that lets a fleet
// of workers shard one cache with no coordination.
func TestRingPlacementIsStable(t *testing.T) {
	r1, _ := ringOfLoopbacks(t, 2, 3)
	r2, _ := ringOfLoopbacks(t, 2, 3)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		k := rng.Uint64()
		a := r1.replicasFor(k, nil)
		b := r2.replicasFor(k, nil)
		if len(a) != len(b) || a[0] != b[0] || a[1] != b[1] {
			t.Fatalf("key %#x places at %v vs %v", k, a, b)
		}
	}
}

// TestRingReadRepair seeds entries on their keys' SECONDARY replicas only
// (as if each primary was down when they were published): one ring
// MultiGet must find them there and back-fill every primary, so the next
// primary read hits directly.
func TestRingReadRepair(t *testing.T) {
	r, lbs := ringOfLoopbacks(t, 2, 3)
	e := Entry{PerReplica: 42, MaxGB: 8, Fits: true}
	keys := []uint64{0xfeedface, 0xdeadbeef00aa}
	for _, k := range keys {
		if err := put1(lbs[r.replicasFor(k, nil)[1]], k, e); err != nil {
			t.Fatal(err)
		}
	}
	out := make([]Entry, len(keys))
	okv := make([]bool, len(keys))
	if err := r.MultiGet(keys, out, okv); err != nil {
		t.Fatal(err)
	}
	for i, k := range keys {
		if !okv[i] || out[i] != e {
			t.Fatalf("key %#x via secondary: %+v ok=%v", k, out[i], okv[i])
		}
		if got, ok, _ := get1(lbs[r.replicasFor(k, nil)[0]], k); !ok || got != e {
			t.Fatalf("read repair did not back-fill key %#x's primary", k)
		}
	}
}

// TestRingDeadNodeDegrades kills one TCP node of a replicated ring:
// one-key and batched operations keep succeeding off the surviving
// replicas, entries published while the node was dead stay readable, and
// only the dead node accumulates errors. The node killed is the first
// key's primary, so the reads must reach it: node names carry the
// servers' random ports, and on some port draws one node is primary for
// none of the 40 keys. Every failure prints the per-node error counts, so
// it names the check that broke and the node charged.
func TestRingDeadNodeDegrades(t *testing.T) {
	var servers []*Server
	var addrs []string
	for i := 0; i < 3; i++ {
		srv, c := startServer(t, 0)
		servers = append(servers, srv)
		addrs = append(addrs, c.addr)
	}
	r, err := DialRing(2, addrs...)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()

	rng := rand.New(rand.NewSource(5))
	keys := make([]uint64, 40)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	ents := randEntries(rng, len(keys))
	if err := r.MultiPut(keys, ents); err != nil {
		t.Fatalf("batched put with every node up: %v; node errors %+v", err, r.Errors())
	}

	dead := r.replicasFor(keys[0], nil)[0]
	servers[dead].Close()

	// Every key must still read back: replication 2 guarantees a live copy.
	out := make([]Entry, len(keys))
	okv := make([]bool, len(keys))
	if err := r.MultiGet(keys, out, okv); err != nil {
		t.Fatalf("batched read with a dead node: %v; node errors %+v", err, r.Errors())
	}
	for i := range keys {
		if !okv[i] || !sameEntryBits(out[i], ents[i]) {
			t.Fatalf("key %d unreadable after node death: ok=%v; node errors %+v", i, okv[i], r.Errors())
		}
	}
	// Publishes keep landing on the survivors.
	e := Entry{PerReplica: 7, Fits: true}
	if err := put1(r, 12345, e); err != nil {
		t.Fatalf("put with a dead node: %v; node errors %+v", err, r.Errors())
	}
	if got, ok, err := get1(r, 12345); err != nil || !ok || got != e {
		t.Fatalf("get of post-death publish: %+v ok=%v err=%v; node errors %+v", got, ok, err, r.Errors())
	}
	errs := r.Errors()
	if errs[dead].Name != addrs[dead] || errs[dead].Errors == 0 {
		t.Fatalf("dead node %s shows no errors: %+v", addrs[dead], errs)
	}
	for i, e := range errs {
		if i != dead && e.Errors != 0 {
			t.Fatalf("healthy nodes charged with errors: %+v", errs)
		}
	}
}

// TestDialRingNodeDownAtStart pins setup-time fault tolerance: a node
// that refuses the initial dial still joins the ring with the failure
// pre-counted, the fleet serves off the survivors, and the node heals
// itself — no re-dial of the Ring — once a server comes up on its addr.
// A fully unreachable tier, by contrast, is a configuration error.
func TestDialRingNodeDownAtStart(t *testing.T) {
	_, live := startServer(t, 0)
	deadL, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := deadL.Addr().String()
	deadL.Close() // port free: dial refused, but the addr is ours to reuse

	r, err := DialRing(2, live.addr, deadAddr)
	if err != nil {
		t.Fatalf("ring with one down node must construct: %v", err)
	}
	defer r.Close()
	if errs := r.Errors(); errs[1].Errors != 1 || errs[0].Errors != 0 {
		t.Fatalf("dial failure not pre-counted on the down node: %+v", errs)
	}

	// The fleet works off the survivor.
	rng := rand.New(rand.NewSource(11))
	keys := make([]uint64, 20)
	for i := range keys {
		keys[i] = rng.Uint64()
	}
	ents := randEntries(rng, len(keys))
	if err := r.MultiPut(keys, ents); err != nil {
		t.Fatal(err)
	}
	out := make([]Entry, len(keys))
	okv := make([]bool, len(keys))
	if err := r.MultiGet(keys, out, okv); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !okv[i] || !sameEntryBits(out[i], ents[i]) {
			t.Fatalf("key %d unreadable with a down-at-start node", i)
		}
	}

	// Bring the node up on its original addr: the lazy client heals.
	l2, err := net.Listen("tcp", deadAddr)
	if err != nil {
		t.Skipf("could not rebind %s: %v", deadAddr, err)
	}
	srv2 := NewServer(0)
	go srv2.Serve(l2)
	defer srv2.Close()
	if err := r.MultiPut(keys, ents); err != nil {
		t.Fatal(err)
	}
	before := r.Errors()[1].Errors
	if err := r.MultiGet(keys, out, okv); err != nil {
		t.Fatal(err)
	}
	if after := r.Errors()[1].Errors; after != before {
		t.Fatalf("healed node still accruing errors: %d -> %d", before, after)
	}

	// Every node unreachable: that is an error, not a silent no-op ring.
	if _, err := DialRing(2, deadAddr+"0", deadAddr+"1"); err == nil {
		t.Fatal("fully unreachable ring must fail to dial")
	}
}

// TestRingAllNodesDead pins total-loss semantics: gets degrade to
// errors (so the Tuner counts them) and puts fail, but nothing panics
// and partial state stays consistent.
func TestRingAllNodesDead(t *testing.T) {
	srv, c := startServer(t, 0)
	r, err := NewRing(1, RingNode{Name: "only", Cache: c})
	if err != nil {
		t.Fatal(err)
	}
	if err := put1(r, 1, Entry{Fits: true}); err != nil {
		t.Fatal(err)
	}
	srv.Close()
	if _, ok, err := get1(r, 1); ok || err == nil {
		t.Fatalf("get on dead ring: ok=%v err=%v, want counted error", ok, err)
	}
	if err := put1(r, 2, Entry{}); err == nil {
		t.Fatal("put on dead ring reported success")
	}
	if r.Errors()[0].Errors == 0 {
		t.Fatal("dead ring counted no errors")
	}
}

// TestRingMultiPutReportsUnlandedKeys runs a two-node ring at replication
// 1 with one node failing: the keys placed on that node reach no replica,
// so the batch fails — and the Tuner counts it — even though the live
// node stored its share. A batch succeeds only when every key landed.
func TestRingMultiPutReportsUnlandedKeys(t *testing.T) {
	fa := &flakyCache{lb: NewLoopback(0)}
	fb := &flakyCache{lb: NewLoopback(0)}
	r := mustRing(t, 1, "node-a", fa, "node-b", fb)
	fb.setDown(true)
	keys := make([]uint64, 64)
	ents := randEntries(rand.New(rand.NewSource(9)), len(keys))
	var onA []int
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 5
		if r.replicasFor(keys[i], nil)[0] == 0 {
			onA = append(onA, i)
		}
	}
	if len(onA) == 0 || len(onA) == len(keys) {
		t.Fatalf("%d of %d keys on node-a: the split must be partial", len(onA), len(keys))
	}
	if err := r.MultiPut(keys, ents); err == nil {
		t.Fatalf("only %d of %d keys stored, yet MultiPut reported success", fa.lb.Len(), len(keys))
	}
	if fa.lb.Len() != len(onA) {
		t.Fatalf("live node stored %d keys, want its share %d", fa.lb.Len(), len(onA))
	}
	// The live node's own keys alone all land: success.
	aKeys, aEnts := make([]uint64, len(onA)), make([]Entry, len(onA))
	for j, i := range onA {
		aKeys[j], aEnts[j] = keys[i], ents[i]
	}
	if err := r.MultiPut(aKeys, aEnts); err != nil {
		t.Fatalf("every key landed, yet MultiPut failed: %v", err)
	}
}
