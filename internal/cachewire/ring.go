package cachewire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"slices"
	"sort"
	"sync/atomic"
	"time"
)

// Ring replicates the cache tier over N nodes by client-side consistent
// hashing: every node contributes ringVnodes virtual points to one
// 64-bit hash circle, and a key lives on the first `replication`
// DISTINCT nodes at or clockwise of its own hash. Because tunerKey.hash()
// is already a uniform stable 64-bit digest, the key itself is its ring
// coordinate — no re-hashing — and every client computes the same
// placement from nothing but the node name list, so a fleet of sweep
// workers shards one logical cache with no coordinator.
//
// Fault model: every node operation that fails is counted against that
// node (Errors) and the lookup moves on to the next replica, so a dead
// node degrades its share of the key space to replica reads — or, with
// every replica down, to plain misses — and never fails a sweep. Reads
// repair as they go: a hit on replica B back-fills the earlier replicas
// that cleanly missed, so entries published while a node was down
// converge back onto it after restart.
//
// A node that keeps failing is gated rather than hammered: after a
// failure, operations skip it (counted in NodeErrors.Skipped, not
// Errors) until a probe deadline elapses; the probe gap starts at
// probeGapBase and doubles per consecutive failure up to probeGapCap,
// so a dead node costs each sweep worker at most one dial timeout per
// probe window instead of one per operation. The first operation after
// the gap is the probe — if it succeeds the node is fully restored (and
// read repair refills it), if it fails the gate re-arms with a longer
// gap. Gating state is per-Ring and atomically maintained, so a fleet
// of sweep goroutines sharing one Ring converges on skipping a dead
// node without coordination.
type Ring struct {
	nodes       []*ringMember
	points      []ringPoint // sorted by (hash, node): the circle
	replication int
	now         func() int64 // monotonic-enough clock for probe gates; swapped in tests
}

// RingNode declares one member for NewRing: a stable name (its identity
// on the hash circle — typically the listen address) and the transport
// to reach it.
type RingNode struct {
	Name  string
	Cache Cache
}

// NodeErrors is one node's failure counters, reported by Ring.Errors in
// construction order: Errors counts operations that reached the node
// and failed, Skipped counts operations the probe gate diverted without
// touching it. A dead node shows a short burst of Errors and a long
// tail of Skipped; Errors alone rising means the node is reachable but
// misbehaving.
type NodeErrors struct {
	Name    string `json:"name"`
	Errors  int64  `json:"errors"`
	Skipped int64  `json:"skipped"`
}

type ringMember struct {
	name       string
	c          Cache
	errs       atomic.Int64
	skips      atomic.Int64
	failStreak atomic.Int64 // consecutive failures; 0 = healthy
	nextProbe  atomic.Int64 // clock value gating the next attempt while failing
}

// Probe-gate pacing: the first retry after a failure waits probeGapBase;
// each further consecutive failure doubles the gap up to probeGapCap.
const (
	probeGapBase = int64(100 * time.Millisecond)
	probeGapCap  = int64(5 * time.Second)
)

// errNodeDown marks an operation that found every replica gated: the
// tier did not fail right now — it is known-dead and being paced.
var errNodeDown = errors.New("cachewire: ring node gated after repeated failures")

// available reports whether n should be attempted: healthy, or failing
// but due for a probe.
func (r *Ring) available(n *ringMember) bool {
	return n.failStreak.Load() == 0 || r.now() >= n.nextProbe.Load()
}

// fail records an operation failure against n and (re-)arms its probe
// gate with the streak's doubled gap.
func (r *Ring) fail(n *ringMember) {
	n.errs.Add(1)
	streak := n.failStreak.Add(1)
	gap := probeGapCap
	if streak < 7 { // probeGapBase<<6 already exceeds the cap
		gap = min(probeGapBase<<(streak-1), probeGapCap)
	}
	n.nextProbe.Store(r.now() + gap)
}

// okay clears n's probe gate after a successful operation.
func (n *ringMember) okay() {
	if n.failStreak.Load() != 0 {
		n.failStreak.Store(0)
	}
}

type ringPoint struct {
	h    uint64
	node int
}

// ringVnodes is the virtual-point count per node: enough that the key
// space splits near-evenly across a handful of real nodes, small enough
// that building and searching the circle stays trivial.
const ringVnodes = 64

// NewRing builds a ring over the given nodes. replication is clamped to
// [1, len(nodes)]; 0 picks min(2, len(nodes)), the smallest factor that
// survives one node loss. Node names must be non-empty and unique — they
// are the placement function, so two clients agree on where a key lives
// exactly when they agree on the name list.
func NewRing(replication int, nodes ...RingNode) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cachewire: ring needs at least one node")
	}
	if replication <= 0 {
		replication = 2
	}
	if replication > len(nodes) {
		replication = len(nodes)
	}
	r := &Ring{replication: replication, now: func() int64 { return time.Now().UnixNano() }}
	seen := map[string]bool{}
	for i, n := range nodes {
		if n.Name == "" {
			return nil, fmt.Errorf("cachewire: ring node %d has an empty name", i)
		}
		if n.Cache == nil {
			return nil, fmt.Errorf("cachewire: ring node %q has a nil cache", n.Name)
		}
		if seen[n.Name] {
			return nil, fmt.Errorf("cachewire: duplicate ring node %q", n.Name)
		}
		seen[n.Name] = true
		r.nodes = append(r.nodes, &ringMember{name: n.Name, c: n.Cache})
		for v := 0; v < ringVnodes; v++ {
			r.points = append(r.points, ringPoint{h: vnodeHash(n.Name, v), node: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].h != r.points[b].h {
			return r.points[a].h < r.points[b].h
		}
		return r.points[a].node < r.points[b].node
	})
	return r, nil
}

// DialRing dials every addr and rings the resulting clients, named by
// their address. A node that refuses the initial dial still joins the
// ring — its pooled client re-dials on every use, so it heals itself
// the moment the server comes up — with the dial failure pre-counted in
// Errors(): a tier node that is down while the fleet starts degrades
// exactly like one that dies later. Only when EVERY addr is unreachable
// does DialRing fail, since a fully dark tier at setup is almost
// certainly a configuration error rather than a partial outage.
func DialRing(replication int, addrs ...string) (*Ring, error) {
	nodes := make([]RingNode, 0, len(addrs))
	var down []int
	var lastErr error
	for i, a := range addrs {
		c, err := Dial(a)
		if err != nil {
			// Empty pool: the first use re-dials (Client.checkout).
			c = &Client{addr: a}
			down = append(down, i)
			lastErr = err
		}
		nodes = append(nodes, RingNode{Name: a, Cache: c})
	}
	if len(down) == len(addrs) && lastErr != nil {
		return nil, lastErr
	}
	r, err := NewRing(replication, nodes...)
	if err != nil {
		for _, n := range nodes {
			n.Cache.(*Client).Close()
		}
		return nil, err
	}
	for _, i := range down {
		r.nodes[i].errs.Add(1)
	}
	return r, nil
}

// vnodeHash places one virtual point: FNV-64a over the length-prefixed
// node name and the vnode index, the same length-prefixed discipline as
// the tuner key hash, so placement is stable across processes and builds.
func vnodeHash(name string, v int) uint64 {
	h := fnv.New64a()
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(len(name)))
	h.Write(b[:])
	io.WriteString(h, name)
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	h.Write(b[:])
	return h.Sum64()
}

// Replication reports the effective (clamped) replication factor.
func (r *Ring) Replication() int { return r.replication }

// Errors reports every node's accumulated operation failures, in
// construction order. A healthy fleet reads all zeros; a dead node shows
// up here while sweeps keep completing — the per-node half of the
// Tuner's aggregate RemoteErrors signal.
func (r *Ring) Errors() []NodeErrors {
	out := make([]NodeErrors, len(r.nodes))
	for i, n := range r.nodes {
		out[i] = NodeErrors{Name: n.name, Errors: n.errs.Load(), Skipped: n.skips.Load()}
	}
	return out
}

// replicasFor appends the indices of key's replica nodes to dst: walk
// the circle clockwise from the key's own hash, keeping the first
// `replication` distinct nodes. Index order is preference order — dst[0]
// is the primary.
func (r *Ring) replicasFor(key uint64, dst []int) []int {
	i := sort.Search(len(r.points), func(j int) bool { return r.points[j].h >= key })
	for len(dst) < r.replication {
		if i == len(r.points) {
			i = 0
		}
		n := r.points[i].node
		dup := false
		for _, d := range dst {
			if d == n {
				dup = true
				break
			}
		}
		if !dup {
			dst = append(dst, n)
		}
		i++
	}
	return dst
}

// MultiGet implements Cache with one batched frame per live node per
// replica round: round 0 groups every key by its primary and fans one
// MultiGet out to each node; keys that missed or whose node failed
// regroup by their next replica, up to the replication factor, so the
// first hit in preference order wins. Hits found past round 0 are
// read-repaired in batched MultiPuts to the earlier replicas that cleanly
// missed (nodes that failed during this call are skipped — repairing
// into a dead node only inflates its error count). Node errors are
// counted and the keys move on; the call fails only when some key
// reached no live replica, and a clean miss anywhere is a miss, not an
// error. The whole call costs O(live nodes) round trips, never O(keys).
func (r *Ring) MultiGet(keys []uint64, out []Entry, ok []bool) error {
	if err := checkGet(keys, out, ok); err != nil || len(keys) == 0 {
		return err
	}
	reps := make([][]int, len(keys))
	for i, k := range keys {
		reps[i] = r.replicasFor(k, make([]int, 0, r.replication))
	}
	pending := make([]int, len(keys))
	for i := range pending {
		pending[i] = i
	}
	failed := make([]bool, len(r.nodes))
	missedAt := make([][]int, len(keys)) // nodes that cleanly missed key i
	var lastErr error
	for round := 0; round < r.replication && len(pending) > 0; round++ {
		byNode := make(map[int][]int)
		for _, ki := range pending {
			ni := reps[ki][round]
			byNode[ni] = append(byNode[ni], ki)
		}
		var next []int
		for _, ni := range sortedNodeIDs(byNode) {
			kis := byNode[ni]
			n := r.nodes[ni]
			if !r.available(n) {
				// Gated node: divert its keys to their next replica without
				// touching it. It is treated like a failed node for repair
				// purposes — no back-fill into a node known to be down.
				n.skips.Add(1)
				failed[ni] = true
				if lastErr == nil {
					lastErr = errNodeDown
				}
				next = append(next, kis...)
				continue
			}
			bk := make([]uint64, len(kis))
			for j, ki := range kis {
				bk[j] = keys[ki]
			}
			bo := make([]Entry, len(kis))
			bok := make([]bool, len(kis))
			if err := n.c.MultiGet(bk, bo, bok); err != nil {
				r.fail(n)
				failed[ni] = true
				lastErr = err
				next = append(next, kis...)
				continue
			}
			n.okay()
			for j, ki := range kis {
				if bok[j] {
					out[ki], ok[ki] = bo[j], true
					continue
				}
				missedAt[ki] = append(missedAt[ki], ni)
				next = append(next, ki)
			}
		}
		sort.Ints(next) // keep key order deterministic for the next round
		pending = next
	}
	// Read repair, batched: every hit back-fills the replicas that missed
	// before it, one MultiPut per target node.
	repairK := make(map[int][]uint64)
	repairE := make(map[int][]Entry)
	for ki := range keys {
		if !ok[ki] {
			continue
		}
		for _, ni := range missedAt[ki] {
			if failed[ni] {
				continue
			}
			repairK[ni] = append(repairK[ni], keys[ki])
			repairE[ni] = append(repairE[ni], out[ki])
		}
	}
	for _, ni := range sortedNodeIDs(repairK) {
		n := r.nodes[ni]
		if err := n.c.MultiPut(repairK[ni], repairE[ni]); err != nil {
			r.fail(n)
		} else {
			n.okay()
		}
	}
	// Only a key that every replica failed to answer leaves the error
	// visible; a clean miss from any replica means the tier worked.
	for ki := range keys {
		if !ok[ki] && len(missedAt[ki]) == 0 {
			return lastErr
		}
	}
	return nil
}

// MultiPut implements Cache: pairs group by every replica of each key,
// one batched frame per node. Errors are counted per node. The call
// succeeds when every key landed on at least one replica, so a dead node
// costs durability margin, not publishes; a key that reached no live
// replica fails the call, as it does in MultiGet.
func (r *Ring) MultiPut(keys []uint64, entries []Entry) error {
	if err := checkPut(keys, entries); err != nil || len(keys) == 0 {
		return err
	}
	byNode := make(map[int][]int) // key indices per replica node
	rep := make([]int, 0, r.replication)
	for i, k := range keys {
		for _, ni := range r.replicasFor(k, rep[:0]) {
			byNode[ni] = append(byNode[ni], i)
		}
	}
	landed := make([]bool, len(keys))
	lastErr := errNodeDown
	for _, ni := range sortedNodeIDs(byNode) {
		n := r.nodes[ni]
		if !r.available(n) {
			n.skips.Add(1)
			continue
		}
		kis := byNode[ni]
		bk, be := make([]uint64, len(kis)), make([]Entry, len(kis))
		for j, ki := range kis {
			bk[j], be[j] = keys[ki], entries[ki]
		}
		if err := n.c.MultiPut(bk, be); err != nil {
			r.fail(n)
			lastErr = err
			continue
		}
		n.okay()
		for _, ki := range kis {
			landed[ki] = true
		}
	}
	if slices.Contains(landed, false) {
		return lastErr
	}
	return nil
}

// Close closes every node transport that is closable.
func (r *Ring) Close() error {
	var first error
	for _, n := range r.nodes {
		if cl, ok := n.c.(io.Closer); ok {
			if err := cl.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	return first
}

func sortedNodeIDs[V any](m map[int]V) []int {
	ids := make([]int, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}
