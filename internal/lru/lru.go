// Package lru is the one bounded most-recently-used map behind every
// cache tier in the repo: the Tuner's in-process cache (internal/core)
// and the cachewire store serving the cross-process tier. Semantics
// shared by both: Get marks an entry most recent, Put updates in place or
// inserts and evicts the least recently used entry at the bound, and a
// bound of zero or less holds nothing. Entries live in one slab linked by
// slot index, so a full map reuses the evicted slot and allocates
// nothing. A Map is NOT safe for concurrent use — callers own locking.
package lru

// Map is a bounded LRU map. The zero value is unusable; construct with
// New.
type Map[K comparable, V any] struct {
	cap int
	idx map[K]int32 // key → slot in ents; built by the first Put
	// ents[0] is the sentinel of a circular list — its next is the most
	// recently used slot, its prev the least — and its zero value is the
	// empty list. The slab grows to cap+1 slots, then evictions recycle.
	ents []entry[K, V]
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	prev, next int32
}

// New builds a map bounded to cap entries; cap <= 0 drops every Put.
func New[K comparable, V any](cap int) *Map[K, V] {
	return &Map[K, V]{cap: cap}
}

// Get returns the value stored under k, marking it most recently used.
func (m *Map[K, V]) Get(k K) (V, bool) {
	i, ok := m.idx[k]
	if !ok {
		var zero V
		return zero, false
	}
	m.unlink(i)
	m.pushFront(i)
	return m.ents[i].val, true
}

// Put stores v under k — updating in place when present, otherwise
// inserting and evicting the least recently used entry when full. Either
// way k becomes most recent.
func (m *Map[K, V]) Put(k K, v V) {
	if m.cap <= 0 {
		return
	}
	i, ok := m.idx[k]
	switch {
	case ok:
		m.unlink(i)
	case m.idx == nil:
		m.idx, m.ents = make(map[K]int32), make([]entry[K, V], 2)
		i = 1
	case len(m.idx) < m.cap:
		i = int32(len(m.ents))
		m.ents = append(m.ents, entry[K, V]{})
	default:
		i = m.ents[0].prev
		m.unlink(i)
		delete(m.idx, m.ents[i].key)
	}
	m.ents[i].key, m.ents[i].val = k, v
	m.idx[k] = i
	m.pushFront(i)
}

// Len reports the number of live entries.
func (m *Map[K, V]) Len() int { return len(m.idx) }

// Each calls f for every entry, least recently used first, without
// disturbing recency order. The iteration order is what lets a snapshot
// replay through Put (oldest first) and land with recency — and thus
// eviction priority — intact. f must not mutate the map.
func (m *Map[K, V]) Each(f func(K, V)) {
	if len(m.idx) == 0 {
		return
	}
	for i := m.ents[0].prev; i != 0; i = m.ents[i].prev {
		f(m.ents[i].key, m.ents[i].val)
	}
}

func (m *Map[K, V]) unlink(i int32) {
	e := &m.ents[i]
	m.ents[e.prev].next, m.ents[e.next].prev = e.next, e.prev
}

func (m *Map[K, V]) pushFront(i int32) {
	head := m.ents[0].next
	m.ents[i].prev, m.ents[i].next = 0, head
	m.ents[head].prev, m.ents[0].next = i, i
}
