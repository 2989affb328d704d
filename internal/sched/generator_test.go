package sched

import (
	"reflect"
	"testing"
)

// generatorSchemes is every scheme of the golden parity table — the full
// set one Generator must compile interchangeably (mirrors
// internal/sim/runner_test.go's allSchemes).
var generatorSchemes = []string{
	"gpipe", "dapple", "chimera", "chimera-wave",
	"hanayo-w1", "hanayo-w2", "hanayo-w4", "interleaved-v2", "gems", "zbh1",
}

// schedulesEqual compares two schedules bit-for-bit: headers, every action
// of every list (reflect.DeepEqual over the lists), and the mapping's
// observable shape; the mapping is compared by kind and dimensions.
func schedulesEqual(t *testing.T, label string, got, want *Schedule) {
	t.Helper()
	if got.Scheme != want.Scheme || got.P != want.P || got.B != want.B ||
		got.S != want.S || got.W != want.W {
		t.Fatalf("%s: header (%s P=%d B=%d S=%d W=%d) != (%s P=%d B=%d S=%d W=%d)",
			label, got.Scheme, got.P, got.B, got.S, got.W,
			want.Scheme, want.P, want.B, want.S, want.W)
	}
	if got.Mapping.Kind != want.Mapping.Kind || got.Mapping.P != want.Mapping.P ||
		got.Mapping.S != want.Mapping.S || got.Mapping.W != want.Mapping.W {
		t.Fatalf("%s: mapping shape differs", label)
	}
	if !reflect.DeepEqual(got.Lists, want.Lists) {
		for d := range want.Lists {
			if d >= len(got.Lists) || len(got.Lists[d]) != len(want.Lists[d]) {
				t.Fatalf("%s: device %d list length differs", label, d)
			}
			for i := range want.Lists[d] {
				if got.Lists[d][i] != want.Lists[d][i] {
					t.Fatalf("%s: device %d op %d: %v != %v",
						label, d, i, got.Lists[d][i], want.Lists[d][i])
				}
			}
		}
		t.Fatalf("%s: lists differ", label)
	}
}

// TestGeneratorRegrowthMatchesFresh is the arena re-growth correctness
// test: one Generator reused across ascending then descending (P, B)
// shapes, for all nine schemes, must produce schedules bit-for-bit
// identical to fresh sched.ByName calls — shrinking back to a small shape
// after a large one must not leak any state from the bigger arenas (stale
// pending tasks, oversized lists, leftover heap events, dirty validation
// flags).
func TestGeneratorRegrowthMatchesFresh(t *testing.T) {
	shapes := [][2]int{{2, 4}, {4, 8}, {8, 16}, {4, 4}, {2, 2}}
	g := NewGenerator()
	for _, scheme := range generatorSchemes {
		for _, shape := range shapes {
			p, b := shape[0], shape[1]
			fresh, err := ByName(scheme, p, b)
			if err != nil {
				t.Fatalf("%s P=%d B=%d fresh: %v", scheme, p, b, err)
			}
			reused, err := g.Generate(scheme, p, b)
			if err != nil {
				t.Fatalf("%s P=%d B=%d reused: %v", scheme, p, b, err)
			}
			schedulesEqual(t, scheme, reused, fresh)
		}
	}
}

// TestGeneratorInterleavesSchemes drives one Generator across alternating
// schemes at the same shape — the per-shape caches (mapping, cap table,
// name) must never cross-contaminate between families that share a
// placement (chimera and gems share ChimeraMapping; chimera-wave and
// hanayo-w1 share WaveMapping but differ in name).
func TestGeneratorInterleavesSchemes(t *testing.T) {
	g := NewGenerator()
	for round := 0; round < 3; round++ {
		for _, scheme := range []string{"chimera", "gems", "chimera-wave", "hanayo-w1"} {
			fresh, err := ByName(scheme, 4, 4)
			if err != nil {
				t.Fatal(err)
			}
			reused, err := g.Generate(scheme, 4, 4)
			if err != nil {
				t.Fatal(err)
			}
			schedulesEqual(t, scheme, reused, fresh)
		}
	}
}

// TestGeneratorOwnedResult documents the ownership contract: the Schedule
// returned by Generate is rewritten in place by the next call.
func TestGeneratorOwnedResult(t *testing.T) {
	g := NewGenerator()
	first, err := g.Generate("dapple", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	clone := first.Clone()
	second, err := g.Generate("gpipe", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("Generator must return its single owned Schedule")
	}
	if first.Scheme != "gpipe" {
		t.Fatal("the owned Schedule must describe the latest call")
	}
	if clone.Scheme != "dapple" || Validate(clone) != nil {
		t.Fatal("a Clone taken before the next Generate must stay intact")
	}
	// The lists are rows of one flat arena: each is exactly full, so an
	// append to one device's list reallocates instead of overwriting the
	// next device's first action.
	for d, l := range second.Lists {
		if cap(l) != len(l) {
			t.Fatalf("device %d: cap %d != len %d", d, cap(l), len(l))
		}
	}
	next := second.Lists[1][0]
	_ = append(second.Lists[0], Action{Kind: OpOptimStep, Micro: -1, Stage: -1, Peer: -1})
	if second.Lists[1][0] != next {
		t.Fatal("appending to device 0's list overwrote device 1's first action")
	}
}

// closureMapping swaps in a copy of the scheme's own mapping: the same
// placement, but no longer the pointer the shape was built with, so the
// engine asks the mapping about every (micro, stage), wakes every device on
// a backward completion and rescans all devices to a fixed point — the
// reference path.
func closureMapping(gp *GenParams) {
	m := *gp.Mapping
	gp.Mapping = &m
}

// TestTableDrivenMatchesClosureReference is the scan and arena parity test:
// for every scheme, shape and wave count the table-driven engine — wake-only
// scanning, closed-form row sizes from the dense device table — must emit,
// action for action, the lists of the closure-mapped reference path, under
// the default ordering costs and under WithCosts(1, 1.5, 0), whose free
// transfers make many more tasks ready at the same instant.
func TestTableDrivenMatchesClosureReference(t *testing.T) {
	schemes := append([]string{"hanayo-w8"}, generatorSchemes...) // waves 1/2/4/8
	table, reference := NewGenerator(), NewGenerator()
	for _, scheme := range schemes {
		for _, shape := range [][2]int{{4, 4}, {8, 16}, {16, 16}, {32, 16}} {
			for _, costs := range [][]Option{nil, {WithCosts(1, 1.5, 0)}} {
				p, b := shape[0], shape[1]
				got, err := table.Generate(scheme, p, b, costs...)
				if err != nil {
					t.Fatalf("%s P=%d B=%d: %v", scheme, p, b, err)
				}
				want, err := reference.Generate(scheme, p, b, append([]Option{closureMapping}, costs...)...)
				if err != nil {
					t.Fatalf("%s P=%d B=%d reference: %v", scheme, p, b, err)
				}
				schedulesEqual(t, scheme, got, want)
			}
		}
	}
}

// TestOneShotAllocsPinned pins a one-shot compile of the benchmark's largest
// single schedule: a fresh Generator pays for its arenas, each once and at
// its exact size, plus the shape — a mapping (struct, parity tables,
// hosting rows), a cap table and its lookup, the name — and nothing per
// device or per action: 33 objects (34 under -race), against 36 when the
// mapping was closures and 952 when every per-device list grew by append.
func TestOneShotAllocsPinned(t *testing.T) {
	const budget = 35
	got := testing.AllocsPerRun(5, func() {
		if _, err := ByName("hanayo-w4", 32, 32); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%.0f objects (budget %d)", got, budget)
	if got > budget {
		t.Fatalf("one-shot hanayo-w4 P=32 B=32 allocates %.0f objects, budget %d", got, budget)
	}
}

// TestGeneratorAllocsZero pins the tentpole number: after warmup on a
// shape, repeated Generate calls — including the fused validation replay —
// allocate nothing.
func TestGeneratorAllocsZero(t *testing.T) {
	g := NewGenerator()
	if _, err := g.Generate("hanayo-w2", 8, 8); err != nil { // warm the arenas
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := g.Generate("hanayo-w2", 8, 8); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Generate allocates %.1f times per call, want 0", allocs)
	}
}

// TestGeneratorAllocsZeroMixed pins the sweep-shaped steady state: cycling
// through every scheme family and several shapes, as an AutoTune worker
// does, stays allocation-free once every shape has been seen.
func TestGeneratorAllocsZeroMixed(t *testing.T) {
	g := NewGenerator()
	cycle := func() {
		for _, scheme := range generatorSchemes {
			for _, shape := range [][2]int{{2, 4}, {4, 8}, {8, 8}} {
				if _, err := g.Generate(scheme, shape[0], shape[1]); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	cycle() // warm every (scheme, shape) entry
	if allocs := testing.AllocsPerRun(5, cycle); allocs > 0 {
		t.Fatalf("steady-state mixed-scheme generation allocates %.1f times per cycle, want 0", allocs)
	}
}

// TestGeneratorOptionsMatchOneShot: the Option escape hatch (the ablation
// path that flips priority or swaps cost ratios) must flow through the
// Generator identically to the one-shot constructors.
func TestGeneratorOptionsMatchOneShot(t *testing.T) {
	fwdFirst := func(gp *GenParams) { gp.Priority = ForwardFirst }
	fresh, err := Hanayo(8, 2, 8, fwdFirst)
	if err != nil {
		t.Fatal(err)
	}
	g := NewGenerator()
	if _, err := g.Generate("hanayo-w2", 8, 8); err != nil { // warm with default opts
		t.Fatal(err)
	}
	reused, err := g.Generate("hanayo-w2", 8, 8, fwdFirst)
	if err != nil {
		t.Fatal(err)
	}
	schedulesEqual(t, "hanayo-w2+fwdFirst", reused, fresh)

	costs, err := DAPPLE(4, 8, WithCosts(1, 1.5, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	reusedCosts, err := g.Generate("dapple", 4, 8, WithCosts(1, 1.5, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	schedulesEqual(t, "dapple+costs", reusedCosts, costs)
}

// TestComputeTasksMatchesGenerate pins the scheme descriptor to the
// schedules it stands for: for every name ByName accepts (the golden table,
// hanayo-w8, interleaved-v3 and the 1f1b alias) over P ∈ {2…8, 16, 32}, the
// descriptor's canonical name, stage count, pipe count, placement (both
// micro parities) and split flag equal the generated schedule's, and
// ComputeTasks — the closed form the configuration search weighs its
// cells by — equals the number of compute actions Generate emits. A name
// Generate rejects is a ParseScheme error too, never a guessed shape.
func TestComputeTasksMatchesGenerate(t *testing.T) {
	g := NewGenerator()
	for _, scheme := range append(generatorSchemes, "hanayo-w8", "interleaved-v3", "1f1b") {
		sc, err := ParseScheme(scheme)
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range []int{2, 3, 4, 5, 6, 7, 8, 16, 32} {
			for _, b := range []int{2, 2 * p} {
				s, err := g.Generate(scheme, p, b)
				if err != nil {
					t.Fatalf("%s P=%d B=%d: %v", scheme, p, b, err)
				}
				compute, split := 0, false
				for _, l := range s.Lists {
					for _, a := range l {
						if a.Kind.IsCompute() {
							compute++
						}
						split = split || a.Kind == OpBackwardInput || a.Kind == OpBackwardWeight
					}
				}
				if got := sc.ComputeTasks(p, b); got != compute {
					t.Fatalf("%s P=%d B=%d: ComputeTasks = %d; Generate emitted %d compute actions",
						scheme, p, b, got, compute)
				}
				if sc.Name() != s.Scheme || sc.Stages(p) != s.S || sc.Pipes() != s.Mapping.WeightReplicas || sc.Split() != split {
					t.Fatalf("%s P=%d B=%d: descriptor (%s S=%d pipes=%d split=%v), schedule (%s S=%d replicas=%d split=%v)",
						scheme, p, b, sc.Name(), sc.Stages(p), sc.Pipes(), sc.Split(),
						s.Scheme, s.S, s.Mapping.WeightReplicas, split)
				}
				for micro := 0; micro < 2; micro++ {
					pipe := micro % sc.Pipes()
					for st := 0; st < s.S; st++ {
						if d, c := sc.Device(p, pipe, st), sc.Chunk(p, pipe, st); d != s.Mapping.Device(micro, st) || c != s.Mapping.Chunk(micro, st) {
							t.Fatalf("%s P=%d micro %d stage %d: descriptor device %d chunk %d, mapping %d %d",
								scheme, p, micro, st, d, c, s.Mapping.Device(micro, st), s.Mapping.Chunk(micro, st))
						}
					}
				}
			}
		}
	}
	for _, bad := range []string{"nope", "hanayo-w", "hanayo-w0", "hanayo-w2x", "interleaved-v", "interleaved-v0", "async-1f1b", ""} {
		if sc, err := ParseScheme(bad); err == nil {
			t.Errorf("ParseScheme(%q) = %v with no error", bad, sc)
		}
	}
	if sc, _ := ParseScheme("gpipe"); sc.ComputeTasks(4, 0) != 0 {
		t.Errorf("ComputeTasks at B=0 = %d, want 0", sc.ComputeTasks(4, 0))
	}
}

// TestGeneratorRejects: scheme-name and shape errors must match the
// one-shot constructors'.
func TestGeneratorRejects(t *testing.T) {
	g := NewGenerator()
	if _, err := g.Generate("nope", 4, 4); err == nil {
		t.Fatal("unknown scheme must fail")
	}
	if _, err := g.Generate("hanayo-w2x", 4, 4); err == nil {
		t.Fatal("trailing garbage in a scheme name must fail")
	}
	if _, err := g.Generate("chimera", 4, 3); err == nil {
		t.Fatal("odd B must fail for chimera")
	}
	if _, err := g.Generate("gems", 4, 3); err == nil {
		t.Fatal("odd B must fail for gems")
	}
	if _, err := g.Generate("gpipe", 4, 0); err == nil {
		t.Fatal("B=0 must fail")
	}
	// The generator must stay usable after a rejected call.
	if _, err := g.Generate("gpipe", 4, 4); err != nil {
		t.Fatal(err)
	}
}
