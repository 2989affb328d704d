package cachewire

import (
	"sync"

	"repro/internal/lru"
)

// store is a size-bounded LRU map of key → Entry shared by the Loopback
// cache and the TCP Server. One mutex is enough here: remote round-trip
// latency dominates any serving path that reaches it, and the in-process
// Loopback sits behind the Tuner's own in-process cache, which absorbs the
// hot repeats.
type store struct {
	mu sync.Mutex
	m  *lru.Map[uint64, Entry]
}

func newStore(entries int) *store {
	if entries <= 0 {
		entries = 1 << 16
	}
	return &store{m: lru.New[uint64, Entry](entries)}
}

func (s *store) put(key uint64, e Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.m.Put(key, e)
}

func (s *store) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m.Len()
}

// getBatch resolves keys into out/ok under a single lock acquisition.
func (s *store) getBatch(keys []uint64, out []Entry, ok []bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, k := range keys {
		out[i], ok[i] = s.m.Get(k)
	}
}

// appendMultiGet appends the MultiGet response body for keys — a present
// marker per key, the encoded entry behind each hit — under a single
// lock acquisition, so one batched frame costs one store lock however
// many keys it carries.
func (s *store) appendMultiGet(dst []byte, keys []uint64) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, k := range keys {
		e, ok := s.m.Get(k)
		if !ok {
			dst = append(dst, 0)
			continue
		}
		dst = append(dst, 1)
		dst = AppendEntry(dst, e)
	}
	return dst
}

// putBatch stores all pairs under a single lock acquisition. Callers
// validate the whole batch first: nothing here can fail halfway.
func (s *store) putBatch(keys []uint64, ents []Entry) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, k := range keys {
		s.m.Put(k, ents[i])
	}
}

// Loopback is the in-process Cache implementation: the same bounded LRU
// store the TCP Server fronts, minus the network. It exists so tests and
// single-process deployments can exercise the Tuner's remote-tier code
// path — including entry encode/decode, which Loopback performs on every
// published entry AND every hit, so both halves of the wire codec are on
// the path even without a socket.
type Loopback struct {
	s *store
}

// NewLoopback builds an in-process cache tier bounded to the given entry
// count (0 → 65536).
func NewLoopback(entries int) *Loopback {
	return &Loopback{s: newStore(entries)}
}

// MultiGet implements Cache: the whole vector resolves in what the TCP
// transport would make one frame (counted as such), each hit
// round-tripped through the wire codec exactly as a TCP client would
// decode it off the socket.
func (l *Loopback) MultiGet(keys []uint64, out []Entry, ok []bool) error {
	if err := checkGet(keys, out, ok); err != nil || len(keys) == 0 {
		return err
	}
	frames.Add(1)
	l.s.getBatch(keys, out, ok)
	for i := range keys {
		if !ok[i] {
			continue
		}
		dec, err := DecodeEntry(AppendEntry(nil, out[i]))
		if err != nil {
			clear(ok[i:])
			return err
		}
		out[i] = dec
	}
	return nil
}

// MultiPut implements Cache with the Server's reject-whole-frame
// discipline: every entry is codec-validated before any is stored.
func (l *Loopback) MultiPut(keys []uint64, entries []Entry) error {
	if err := checkPut(keys, entries); err != nil || len(keys) == 0 {
		return err
	}
	frames.Add(1)
	dec := make([]Entry, len(entries))
	for i, e := range entries {
		d, err := DecodeEntry(AppendEntry(nil, e))
		if err != nil {
			return err
		}
		dec[i] = d
	}
	l.s.putBatch(keys, dec)
	return nil
}

// Len reports the number of stored entries.
func (l *Loopback) Len() int { return l.s.len() }
