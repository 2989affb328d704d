package main

import (
	"fmt"
	"net"
	"runtime"
	"time"

	"repro/internal/cachewire"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/lru"
	"repro/internal/nn"
)

// tcpTier is an in-process cachewire.Server on an ephemeral loopback port.
type tcpTier struct {
	srv    *cachewire.Server
	addr   string
	served chan error
}

func startTier() (*tcpTier, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	t := &tcpTier{srv: cachewire.NewServer(0), addr: l.Addr().String(), served: make(chan error, 1)}
	go func() { t.served <- t.srv.Serve(l) }()
	return t, nil
}

// stop closes the server and waits for its accept loop to return.
func (t *tcpTier) stop() error {
	err := t.srv.Close()
	if serr := <-t.served; err == nil {
		err = serr
	}
	return err
}

// tierBatch is how many fresh-Tuner sweeps make one tier_warm op. A single
// sweep is about 100 µs and bimodal on a two-core box — 30–50 µs when the
// server's goroutine is already running, 100–200 µs when a thread has to be
// woken — and the median of a bimodal sample flips between runs. Sixteen in
// a row are one steady 1.6 ms op.
const tierBatch = 16

// tierInst is tier_warm: every sweep of an op is a fresh Tuner — a new
// worker's view — over the Fig 10 grid against a tier that already holds
// every key.
type tierInst struct {
	e          *env
	cl         *cluster.Cluster
	model      nn.Config
	space      core.SearchSpace
	tier       *tcpTier
	client     *cachewire.Client
	goroutines int // before the tier started; close must return to it

	want         []row
	got          []core.Candidate
	sims, frames int64
	rerrs        int64
	retries0     int64
}

func tierWorkload(name, why string) workload {
	return workload{name: name, why: why, setup: func(e *env) (instance, error) {
		cl, err := presetCluster("tacc", 32, e.in)
		if err != nil {
			return nil, err
		}
		s := &tierInst{e: e, cl: cl, model: nn.BERTStyle(), space: fig10Space(0, 1),
			goroutines: runtime.NumGoroutine(), retries0: cachewire.Retries()}
		if s.tier, err = startTier(); err != nil {
			return nil, err
		}
		if s.client, err = cachewire.Dial(s.tier.addr); err != nil {
			s.tier.stop()
			return nil, err
		}
		// The cold sweep is the reference; a second one through a Tuner
		// fills the tier and must already agree with it.
		s.want = rowsOf(core.AutoTune(cl, s.model, s.space))
		fill := core.NewTuner(core.TunerOptions{Remote: s.client}).AutoTune(cl, s.model, s.space)
		if err := sameRows("tier fill vs cold sweep", rowsOf(fill), s.want, 0); err != nil {
			s.close()
			return nil, err
		}
		return s, nil
	}}
}

func (s *tierInst) prep() error { return nil }

func (s *tierInst) op() error {
	sims, frames := core.SimRuns(), cachewire.Frames()
	for i := 0; i < tierBatch; i++ {
		id := s.e.tr.begin("core.tuner_sweep")
		t := core.NewTuner(core.TunerOptions{Remote: s.client})
		s.got = t.AutoTune(s.cl, s.model, s.space)
		s.e.tr.end(id)
		s.rerrs += t.RemoteErrors()
	}
	s.sims, s.frames = core.SimRuns()-sims, cachewire.Frames()-frames
	return nil
}

func (s *tierInst) check() error {
	if s.sims != 0 {
		return fmt.Errorf("warm tier sweeps issued %d simulations, want 0", s.sims)
	}
	if s.frames != tierBatch {
		return fmt.Errorf("%d warm tier sweeps cost %d frames, want one each (the prefetch; nothing to flush)", tierBatch, s.frames)
	}
	if s.rerrs != 0 {
		return fmt.Errorf("%d remote-tier errors", s.rerrs)
	}
	return sameRows("tier-served sweep vs cold sweep", rowsOf(s.got), s.want, 0)
}

func (s *tierInst) close() error {
	err := s.client.Close()
	if terr := s.tier.stop(); err == nil {
		err = terr
	}
	// Connection handlers exit once their sockets are closed; give them a
	// moment, then hold the server to leaving nothing behind.
	for wait := time.Millisecond; runtime.NumGoroutine() > s.goroutines; wait *= 2 {
		if wait > time.Second {
			return fmt.Errorf("cachewire server leaked goroutines: %d running, %d before it started",
				runtime.NumGoroutine(), s.goroutines)
		}
		time.Sleep(wait)
	}
	return err
}

// probeKeys are n synthetic key hashes with entries, for wire probes that
// cannot name the Tuner's own (unexported) keys.
func probeKeys(n int) ([]uint64, []cachewire.Entry) {
	keys, ents := make([]uint64, n), make([]cachewire.Entry, n)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		ents[i] = cachewire.Entry{PerReplica: float64(i) + 0.5, MaxGB: 8, Fits: i%2 == 0}
	}
	return keys, ents
}

func (s *tierInst) layers(budget time.Duration, m *metricSet) error {
	// Per sweep, as on the other workloads.
	m.set("core.sweep_ms", median(s.e.tr.perOp()["core.tuner_sweep"])/tierBatch)
	m.set("core.remote_errors", float64(s.rerrs))
	m.set("cachewire.frames_per_op", float64(s.frames))
	rankingMetrics(s.got, m)
	each := budget / 8

	// The local-LRU path: one Tuner, the same sweep again.
	warm := core.NewTuner(core.TunerOptions{Remote: s.client})
	warm.AutoTune(s.cl, s.model, s.space)
	d, _ := timeMedian(each, 5, func() error { warm.AutoTune(s.cl, s.model, s.space); return nil })
	m.set("core.local_hit_sweep_us", float64(d)/1e3)

	// One frame of the grid's size, reads and writes, and a single key.
	const gridKeys = 21
	keys, ents := probeKeys(gridKeys)
	out, ok := make([]cachewire.Entry, gridKeys), make([]bool, gridKeys)
	for _, probe := range []struct {
		metric string
		call   func() error
	}{
		{"cachewire.multiput_us", func() error { return s.client.MultiPut(keys, ents) }},
		{"cachewire.multiget_us", func() error { return s.client.MultiGet(keys, out, ok) }},
		{"cachewire.get_us", func() error { _, _, err := s.client.Get(keys[0]); return err }},
	} {
		d, err := timeMedian(each, 5, probe.call)
		if err != nil {
			return err
		}
		m.set(probe.metric, float64(d)/1e3)
	}
	for i := range ok {
		if !ok[i] || out[i] != ents[i] {
			return fmt.Errorf("cachewire probe: key %d came back %+v (hit %v), stored %+v", i, out[i], ok[i], ents[i])
		}
	}

	// Codec and LRU are nanosecond-scale: time batches of 1000.
	const batch = 1000
	var buf []byte
	d, err := timeMedian(each/2, 5, func() error {
		for i := 0; i < batch; i++ {
			buf = cachewire.AppendEntry(buf[:0], ents[i%gridKeys])
			if _, err := cachewire.DecodeEntry(buf); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("cachewire.entry_codec_ns", float64(d)/batch)
	cache := lru.New[uint64, cachewire.Entry](4096)
	d, _ = timeMedian(each/2, 5, func() error {
		for i := 0; i < batch; i++ {
			cache.Put(uint64(i), ents[i%gridKeys])
		}
		return nil
	})
	m.set("lru.put_ns", float64(d)/batch)
	d, _ = timeMedian(each/2, 5, func() error {
		for i := 0; i < batch; i++ {
			cache.Get(uint64(i))
		}
		return nil
	})
	m.set("lru.get_ns", float64(d)/batch)

	if err := ringProbe(each, m); err != nil {
		return err
	}
	m.set("cachewire.retries", float64(cachewire.Retries()-s.retries0))
	return nil
}

// ringProbe times a batched read through a three-node ring replicated two
// ways, then closes one node and counts how many keys still hit.
func ringProbe(budget time.Duration, m *metricSet) error {
	var tiers []*tcpTier
	var addrs []string
	defer func() {
		for _, t := range tiers {
			t.stop()
		}
	}()
	for i := 0; i < 3; i++ {
		t, err := startTier()
		if err != nil {
			return err
		}
		tiers, addrs = append(tiers, t), append(addrs, t.addr)
	}
	ring, err := cachewire.DialRing(2, addrs...)
	if err != nil {
		return err
	}
	defer ring.Close()
	const n = 64
	keys, ents := probeKeys(n)
	if err := ring.MultiPut(keys, ents); err != nil {
		return err
	}
	out, ok := make([]cachewire.Entry, n), make([]bool, n)
	d, err := timeMedian(budget, 5, func() error { return ring.MultiGet(keys, out, ok) })
	if err != nil {
		return err
	}
	m.set("cachewire.ring_multiget_us", float64(d)/1e3)

	if err := tiers[0].stop(); err != nil {
		return err
	}
	tiers = tiers[1:]
	clear(ok)
	if err := ring.MultiGet(keys, out, ok); err != nil {
		return fmt.Errorf("ring read with one node down: %w", err)
	}
	hits := 0
	for i := range ok {
		if ok[i] && out[i] == ents[i] {
			hits++
		}
	}
	m.set("cachewire.ring_degraded_hit_share", float64(hits)/n)
	return nil
}
