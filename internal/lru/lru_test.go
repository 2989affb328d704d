package lru

import (
	"container/list"
	"math/rand/v2"
	"slices"
	"testing"
)

func TestPutGetUpdateEvict(t *testing.T) {
	m := New[string, int](2)
	if _, ok := m.Get("a"); ok {
		t.Fatal("empty map reported a hit")
	}
	m.Put("a", 1)
	m.Put("b", 2)
	if v, ok := m.Get("a"); !ok || v != 1 {
		t.Fatalf("a = %d, %v", v, ok)
	}
	m.Put("a", 10) // update in place, still 2 entries
	if m.Len() != 2 {
		t.Fatalf("len %d after update, want 2", m.Len())
	}
	// "b" is now least recent ("a" was touched twice): inserting "c"
	// evicts it.
	m.Put("c", 3)
	if _, ok := m.Get("b"); ok {
		t.Fatal("least-recent entry survived the bound")
	}
	if v, _ := m.Get("a"); v != 10 {
		t.Fatalf("a = %d after update, want 10", v)
	}
	if v, _ := m.Get("c"); v != 3 {
		t.Fatalf("c = %d, want 3", v)
	}
}

func TestGetRefreshesRecency(t *testing.T) {
	m := New[int, int](2)
	m.Put(1, 1)
	m.Put(2, 2)
	m.Get(1)    // 2 becomes least recent
	m.Put(3, 3) // evicts 2
	if _, ok := m.Get(2); ok {
		t.Fatal("Get did not refresh recency")
	}
	if _, ok := m.Get(1); !ok {
		t.Fatal("refreshed entry was evicted")
	}
}

func TestEachWalksOldestFirst(t *testing.T) {
	m := New[int, int](3)
	m.Put(1, 10)
	m.Put(2, 20)
	m.Put(3, 30)
	m.Get(1) // 1 becomes most recent: order is now 2, 3, 1
	var keys []int
	m.Each(func(k, v int) {
		if v != k*10 {
			t.Fatalf("key %d carries %d, want %d", k, v, k*10)
		}
		keys = append(keys, k)
	})
	if len(keys) != 3 || keys[0] != 2 || keys[1] != 3 || keys[2] != 1 {
		t.Fatalf("Each order %v, want [2 3 1] (least recent first)", keys)
	}
	// Replaying an Each walk through Put into a fresh map must preserve
	// eviction priority: that is the snapshot/restore contract.
	n := New[int, int](2)
	m.Each(func(k, v int) { n.Put(k, v) })
	if _, ok := n.Get(2); ok {
		t.Fatal("oldest entry survived a tighter bound after replay")
	}
	if _, ok := n.Get(1); !ok {
		t.Fatal("most recent entry lost in replay")
	}
}

func TestZeroCapDropsEverything(t *testing.T) {
	for _, cap := range []int{0, -3} {
		m := New[int, int](cap)
		m.Put(1, 1)
		if m.Len() != 0 {
			t.Fatalf("cap %d held %d entries", cap, m.Len())
		}
	}
}

// refLRU is the reference model the slab map is checked against: the
// textbook container/list LRU (front = most recent).
type refLRU struct {
	cap int
	m   map[int]*list.Element
	l   list.List // values are [2]int{key, val}
}

func (r *refLRU) get(k int) (int, bool) {
	el, ok := r.m[k]
	if !ok {
		return 0, false
	}
	r.l.MoveToFront(el)
	return el.Value.([2]int)[1], true
}

// put returns the evicted key, or -1.
func (r *refLRU) put(k, v int) int {
	if r.cap <= 0 {
		return -1
	}
	if el, ok := r.m[k]; ok {
		el.Value = [2]int{k, v}
		r.l.MoveToFront(el)
		return -1
	}
	victim := -1
	if r.l.Len() >= r.cap {
		oldest := r.l.Back()
		r.l.Remove(oldest)
		victim = oldest.Value.([2]int)[0]
		delete(r.m, victim)
	}
	r.m[k] = r.l.PushFront([2]int{k, v})
	return victim
}

func (r *refLRU) oldestFirst() [][2]int {
	var out [][2]int
	for el := r.l.Back(); el != nil; el = el.Prev() {
		out = append(out, el.Value.([2]int))
	}
	return out
}

// TestMatchesReferenceModel drives the slab map and the container/list
// model through the same random Get/Put/update sequences and compares
// every answer: values, Len, which key an insert evicts, and the full
// Each order.
func TestMatchesReferenceModel(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, cap := range []int{0, 1, 2, 7, 64} {
		for seq := 0; seq < 2000/5; seq++ {
			m := New[int, int](cap)
			ref := &refLRU{cap: cap, m: map[int]*list.Element{}}
			keys := 1 + rng.IntN(2*cap+3) // key space around the bound: hits, updates and evictions
			for op := 0; op < 200; op++ {
				k := rng.IntN(keys)
				if rng.IntN(2) == 0 {
					v, ok := m.Get(k)
					rv, rok := ref.get(k)
					if ok != rok || v != rv {
						t.Fatalf("cap %d seq %d op %d: Get(%d) = %d, %v; reference %d, %v", cap, seq, op, k, v, ok, rv, rok)
					}
					continue
				}
				v := rng.Int()
				victim := ref.put(k, v)
				m.Put(k, v)
				if victim >= 0 {
					if _, ok := m.Get(victim); ok {
						t.Fatalf("cap %d seq %d op %d: Put(%d) kept %d, the reference's victim", cap, seq, op, k, victim)
					}
				}
				if m.Len() != len(ref.m) {
					t.Fatalf("cap %d seq %d op %d: Len %d, reference %d", cap, seq, op, m.Len(), len(ref.m))
				}
			}
			var got [][2]int
			m.Each(func(k, v int) { got = append(got, [2]int{k, v}) })
			if want := ref.oldestFirst(); !slices.Equal(got, want) {
				t.Fatalf("cap %d seq %d: Each %v, reference %v", cap, seq, got, want)
			}
		}
	}
}

// TestSteadyStateAllocatesNothing pins the slab's point: a hit costs no
// allocation, and neither does inserting a new key into a full map —
// the evicted entry's slot is reused.
func TestSteadyStateAllocatesNothing(t *testing.T) {
	const cap = 64
	m := New[int, int](cap)
	for k := 0; k < cap; k++ {
		m.Put(k, k)
	}
	k := 0
	if got := testing.AllocsPerRun(1000, func() { m.Get(k % cap); k++ }); got != 0 {
		t.Errorf("Get allocates %.0f objects, want 0", got)
	}
	next := cap
	if got := testing.AllocsPerRun(1000, func() { m.Put(next, next); next++ }); got != 0 {
		t.Errorf("Put of a new key at capacity allocates %.0f objects, want 0", got)
	}
	if m.Len() != cap {
		t.Fatalf("Len %d after churn, want %d", m.Len(), cap)
	}
}
