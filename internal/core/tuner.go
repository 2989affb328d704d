// The tuning service: AutoTune packaged for steady-state serving. One
// process-wide Tuner owns (1) a bounded pool of reusable evaluators —
// sched.Generator + sim.Runner pairs, built on first use and reused
// warmest first, so the per-candidate hot path (schedule compilation
// included) allocates nothing — and (2) a size-bounded LRU
// cross-sweep cache of evaluation results keyed by
// (cluster fingerprint, model config, scheme, P, B, MicroRows), so
// repeated and overlapping sweeps — calibration loops, wave sweeps, many
// users tuning similar models — hit cached evaluations instead of
// re-simulating. An optional third tier (TunerOptions.Remote) extends the
// same seam across processes: every sweep resolves its local misses
// against a shared cachewire tier in one batched read under the stable
// 64-bit key hashes and publishes its fresh evaluations back in one
// batched write, so a fleet of sharded workers (see SearchSpace.Shard and
// cmd/hanayo-tuned) fills one cache that any later process sweeps from
// without re-simulating.
package core

import (
	goruntime "runtime"
	"sync"
	"sync/atomic"

	"repro/internal/cachewire"
	"repro/internal/cluster"
	"repro/internal/lru"
	"repro/internal/nn"
)

// TunerOptions bounds the service.
type TunerOptions struct {
	// Runners bounds the evaluator pool — the maximum number of
	// measurements in flight across ALL concurrent sweeps served by
	// this Tuner. 0 → one per CPU.
	Runners int
	// CacheEntries bounds the cross-sweep evaluation cache (entries,
	// evicted least recently used first). 0 → 4096; negative disables
	// caching, leaving only arena reuse.
	CacheEntries int
	// Remote plugs a cross-process cache tier behind the in-process cache:
	// a sweep reads the keys its LRU misses in one batch at its start, under
	// tunerKey.hash(), and writes its fresh evaluations in one batch at its
	// end. Typically a cachewire.Client dialed at a cachewire.Server;
	// cachewire.NewLoopback wires the tier in-process for tests. Nil keeps
	// the service single-process. Remote errors never fail a sweep — a read
	// error is a miss, a write error a dropped publish (counted by
	// RemoteErrors).
	Remote cachewire.Cache
}

// Tuner serves AutoTune sweeps over a bounded evaluator pool with a
// cross-sweep evaluation cache. Safe for concurrent use; construct once
// and share.
type Tuner struct {
	// pool is the admission control that keeps total simulation concurrency
	// bounded however many sweeps are in flight.
	pool   evalPool
	cache  tunerCache
	remote cachewire.Cache // nil → single-process
	rerrs  atomic.Int64    // remote-tier failures (degraded, not fatal)

	// flights deduplicates in-flight evaluations across concurrent
	// sweeps: the first cache miss on a key leads the computation, later
	// misses wait on its done channel instead of re-simulating — the
	// cross-sweep counterpart of the per-sweep keyMemo.
	mu      sync.Mutex
	flights map[tunerKey]*flight
}

// flight is one in-progress cross-sweep evaluation. The leader writes es,
// full and err strictly before closing done; followers read them only
// after <-done, so no lock is needed on the fields themselves. It follows
// the memo's publication rule: full marks a complete evaluation in es, err
// a deterministic error, and a flight landing with neither is empty — its
// leader was deadline-aborted, which is a fact about the leader's cell and
// cutoff, so followers measure for themselves.
type flight struct {
	done chan struct{}
	es   evalShared
	full bool
	err  error
}

// NewTuner builds a tuning service.
func NewTuner(opt TunerOptions) *Tuner {
	n := opt.Runners
	if n <= 0 {
		n = goruntime.NumCPU()
	}
	entries := opt.CacheEntries
	if entries == 0 {
		entries = 4096
	}
	return &Tuner{pool: evalPool{sem: make(chan struct{}, n)}, remote: opt.Remote,
		cache: tunerCache{m: lru.New[tunerKey, evalShared](entries)}, flights: map[tunerKey]*flight{}}
}

// join registers interest in key gk: the first caller becomes the leader
// (leader=true) and must call land once its result is final; later
// callers receive the existing flight to wait on.
func (t *Tuner) join(gk tunerKey) (f *flight, leader bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if f, ok := t.flights[gk]; ok {
		return f, false
	}
	f = &flight{done: make(chan struct{})}
	t.flights[gk] = f
	return f, true
}

// land retires a flight after its es/full/err are final (and, on success,
// the cache entry is published).
func (t *Tuner) land(gk tunerKey, f *flight) {
	t.mu.Lock()
	delete(t.flights, gk)
	t.mu.Unlock()
	close(f.done)
}

// AutoTune runs one configuration sweep through the service: identical
// semantics and ranking as the package-level AutoTune (including
// space.Prune and worker-count invariance), but evaluators come from the
// Tuner's bounded pool and every (cluster, model, scheme, P, B, MicroRows)
// evaluation is served from — and published to — the cross-sweep cache.
func (t *Tuner) AutoTune(cl *cluster.Cluster, model nn.Config, space SearchSpace) []Candidate {
	return sweep(cl, model, space, t)
}

// AutoTuneShard is AutoTuneShard served through the Tuner: the shard's
// grid-order slice, with evaluations pulled through the cache tiers and
// the bounded pool. This is what a cmd/hanayo-tuned worker runs — each
// shard process publishes its evaluations to the shared remote tier, so
// the fleet collectively fills a cache any later sweep hits outright.
func (t *Tuner) AutoTuneShard(cl *cluster.Cluster, model nn.Config, space SearchSpace) []Candidate {
	return sweepGrid(cl, model, space, t)
}

// CacheLen reports the number of cached cross-sweep evaluations.
func (t *Tuner) CacheLen() int { return t.cache.len() }

// RemoteErrors reports how many remote-tier operations have failed since
// construction. The remote tier is best-effort — failures degrade the hit
// rate, never a sweep — so this counter is the operational signal that
// the tier is unhealthy.
func (t *Tuner) RemoteErrors() int64 { return t.rerrs.Load() }

// tunerKey identifies one cached evaluation. The cluster contributes a
// content fingerprint (presets build a fresh *Cluster per call, so pointer
// identity would never hit); the model config is comparable and embedded
// whole. MicroRows is part of the workload (it scales compute and comm
// times and activation bytes). Whether the memory-first front end ran is
// not part of it: the front end runs only under a plan that cannot kill a
// device, where its OOM verdict equals the simulated one field for field,
// and Candidate.Pruned comes from the sweep, not the entry. faults is the
// plan's sim.FaultPlan fingerprint (0 when fault-free), so a faulty sweep
// can never serve — or poison — a fault-free entry.
type tunerKey struct {
	cluster uint64
	model   nn.Config
	scheme  string
	p, b    int
	rows    int
	faults  uint64
}

// keyFor builds the cross-sweep cache key for one plan. clusterFP is the
// plan's cluster fingerprint, hashed once per sweep by the caller (the
// matrices are O(P²) to hash and sweep-constant).
func keyFor(plan Plan, clusterFP uint64) tunerKey {
	return tunerKey{
		cluster: clusterFP,
		model:   plan.Model,
		scheme:  plan.Scheme,
		p:       plan.P,
		b:       plan.B,
		rows:    plan.MicroRows,
		faults:  plan.Faults.Fingerprint(),
	}
}

// hash reduces the key to a stable 64-bit FNV-1a digest: the cluster
// fingerprint (itself a content hash), every model-config field, the
// scheme and the (P, B, MicroRows) shape, with strings
// length-prefixed exactly as cluster.Fingerprint does. It is the wire key
// of the cross-process cache tier — stable across processes, builds and
// architectures. (Two distinct keys colliding in 64 bits would alias
// their cached entries; at ~2⁻⁶⁴ per pair that is far below any failure
// rate the rest of the service can see.)
func (k tunerKey) hash() uint64 {
	// Hand-rolled FNV-64a over the identical little-endian byte stream
	// hash/fnv would see (same digest, pinned by the golden test): the
	// hash runs once per grid cell per sweep, and the interface-dispatch
	// Write path showed up in sweep profiles.
	const prime = 1099511628211
	h := uint64(14695981039346656037)
	u64 := func(v uint64) {
		for i := 0; i < 8; i++ {
			h = (h ^ (v & 0xff)) * prime
			v >>= 8
		}
	}
	str := func(s string) {
		u64(uint64(len(s)))
		for i := 0; i < len(s); i++ {
			h = (h ^ uint64(s[i])) * prime
		}
	}
	b := func(v bool) {
		if v {
			u64(1)
		} else {
			u64(0)
		}
	}
	u64(k.cluster)
	str(k.model.Name)
	u64(uint64(int64(k.model.Layers)))
	u64(uint64(int64(k.model.Hidden)))
	u64(uint64(int64(k.model.Heads)))
	u64(uint64(int64(k.model.Vocab)))
	u64(uint64(int64(k.model.SeqLen)))
	b(k.model.Causal)
	str(k.scheme)
	u64(uint64(int64(k.p)))
	u64(uint64(int64(k.b)))
	u64(uint64(int64(k.rows)))
	b(false) // the retired prune flag: kept so every published digest holds
	u64(k.faults)
	return h
}

// wire and entryFromWire are the one conversion pair between the in-process
// record and the remote tier's: the wire form drops a failed verdict's
// diagnostics and keeps everything else.
func (es *evalShared) wire() cachewire.Entry {
	return cachewire.Entry{PerReplica: es.perReplica, MaxGB: es.maxGB,
		Fits: es.fits, Failed: es.failed, SplitBW: es.splitBW}
}

func entryFromWire(we cachewire.Entry) evalShared {
	return evalShared{perReplica: we.PerReplica, maxGB: we.MaxGB,
		fits: we.Fits, failed: we.Failed, splitBW: we.SplitBW}
}

// tunerCache is the size-bounded LRU map of evaluation results: one map
// under one mutex, each critical section a single map operation. A
// disabled cache is a map bounded to nothing.
type tunerCache struct {
	mu sync.Mutex
	m  *lru.Map[tunerKey, evalShared]
}

func (c *tunerCache) get(k tunerKey) (evalShared, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Get(k)
}

func (c *tunerCache) put(k tunerKey, es evalShared) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m.Put(k, es)
}

func (c *tunerCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m.Len()
}
