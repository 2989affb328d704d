package core

import (
	"errors"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/memmodel"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestMain fails the package if any test leaves a goroutine behind: after
// the tests, the goroutine count must return to its baseline within 2 s,
// or every stack is printed and the run fails.
func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "leaked goroutines: %d at start, %d after the tests\n%s", baseline, n, buf)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func bertPlan(scheme string, p, d int) Plan {
	return Plan{
		Scheme:    scheme,
		Cluster:   cluster.FullNVLink(p * d),
		Model:     nn.BERTStyle(),
		P:         p,
		D:         d,
		B:         2 * d,
		MicroRows: 2,
	}
}

func TestPlanValidate(t *testing.T) {
	good := bertPlan("hanayo-w2", 4, 2)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.P = 16 // 16×2 > 8 devices
	if bad.Validate() == nil {
		t.Fatal("expected device-count error")
	}
	bad2 := good
	bad2.Cluster = nil
	if bad2.Validate() == nil {
		t.Fatal("expected nil-cluster error")
	}
}

func TestPlanScheduleAndSimulate(t *testing.T) {
	p := bertPlan("hanayo-w2", 8, 1)
	s, err := p.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if s.S != 32 {
		t.Fatalf("S=%d want 32", s.S)
	}
	e, err := p.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	if r := e.Sim; r.Makespan <= 0 {
		t.Fatal("zero makespan")
	}
}

// TestSimulationProvesSchedule: a sweep cell's schedule is proven by the
// simulation that measures it, not by its compile. A compiled hanayo-w2
// schedule missing one activation send stalls its consumer, and the
// evaluation reports that as an error wrapping sched.ErrDeadlock; one with
// an activation send moved ahead of the forward that produces it, or a
// forward moved ahead of the receive that brings its activation, is an
// error naming that op — never a hang and never a throughput.
func TestSimulationProvesSchedule(t *testing.T) {
	plan := bertPlan("hanayo-w2", 4, 1)
	plan.B = 4
	isSend := func(a sched.Action) bool { return a.Kind == sched.OpSendAct }
	isRecv := func(a sched.Action) bool { return a.Kind == sched.OpRecvAct }
	for _, c := range []struct {
		name   string
		find   func(sched.Action) bool
		mutate func(list []sched.Action, i int) []sched.Action
		want   func(error) bool
	}{
		{"dropped send", isSend, func(list []sched.Action, i int) []sched.Action {
			return append(list[:i:i], list[i+1:]...)
		}, func(err error) bool { return errors.Is(err, sched.ErrDeadlock) }},
		{"send before its forward", isSend, func(list []sched.Action, i int) []sched.Action {
			list[i-1], list[i] = list[i], list[i-1]
			return list
		}, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "before the compute that produces its payload")
		}},
		{"forward before its receive", isRecv, func(list []sched.Action, i int) []sched.Action {
			list[i], list[i+1] = list[i+1], list[i]
			return list
		}, func(err error) bool {
			return err != nil && strings.Contains(err.Error(), "before its input activation arrives")
		}},
	} {
		ev := newEvaluator()
		s, err := ev.gen.Generate(plan.Scheme, plan.P, plan.B)
		if err != nil {
			t.Fatal(err)
		}
		mutated := false
		for d, list := range s.Lists {
			if i := slices.IndexFunc(list, c.find); i > 0 {
				s.Lists[d] = c.mutate(list, i)
				mutated = true
				break
			}
		}
		if !mutated {
			t.Fatal("no activation transfer to mutate")
		}
		es, _, err := plan.evaluate(s, ev, false, 0)
		if !c.want(err) {
			t.Errorf("%s: throughput %g, error %v", c.name, es.perReplica, err)
		}
	}
}

func TestThroughputScalesWithD(t *testing.T) {
	p1 := bertPlan("dapple", 4, 1)
	p2 := bertPlan("dapple", 4, 2)
	p2.B = p1.B // same per-replica micro count
	t1, err := p1.Throughput()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := p2.Throughput()
	if err != nil {
		t.Fatal(err)
	}
	if t2 < 1.9*t1 || t2 > 2.1*t1 {
		t.Fatalf("DP=2 throughput %g not ≈2× DP=1 %g", t2, t1)
	}
}

func TestHanayoOutperformsBaselinesOnFC(t *testing.T) {
	// The paper's core evaluation claim, at the plan level.
	get := func(scheme string) float64 {
		thr, err := bertPlan(scheme, 8, 1).Throughput()
		if err != nil {
			t.Fatal(err)
		}
		return thr
	}
	gpipe, dapple, cw := get("gpipe"), get("dapple"), get("chimera-wave")
	h2 := get("hanayo-w2")
	if !(h2 > cw && h2 > dapple && h2 > gpipe) {
		t.Fatalf("hanayo-w2 %.3g not above gpipe %.3g dapple %.3g chimera-wave %.3g",
			h2, gpipe, dapple, cw)
	}
}

func TestMemoryFitsSmallVsLarge(t *testing.T) {
	fits, err := bertPlan("hanayo-w2", 8, 1).Fits()
	if err != nil {
		t.Fatal(err)
	}
	if !fits {
		t.Fatal("BERT on 8×80GB should fit")
	}
	tiny := bertPlan("gpipe", 2, 1)
	tiny.Cluster = cluster.Tencent(2) // 32 GB devices, 2-way pipeline
	tiny.B = 8
	fits, err = tiny.Fits()
	if err != nil {
		t.Fatal(err)
	}
	if fits {
		t.Fatal("BERT 2-way GPipe must OOM 32 GB devices")
	}
}

func TestAutoTuneFindsFeasibleBest(t *testing.T) {
	cl := cluster.TACC(8)
	cands := AutoTune(cl, nn.BERTStyle(), SearchSpace{
		PD:        [][2]int{{4, 2}, {8, 1}},
		Waves:     []int{1, 2},
		B:         4,
		MicroRows: 1,
	})
	if len(cands) == 0 {
		t.Fatal("no candidates")
	}
	best, ok := Best(cands)
	if !ok {
		t.Fatal("no feasible candidate")
	}
	if best.Throughput <= 0 {
		t.Fatal("best has zero throughput")
	}
	// The winner must be a Hanayo configuration on this search space.
	if !strings.HasPrefix(best.Plan.Scheme, "hanayo") {
		t.Fatalf("best scheme %q, expected a hanayo config", best.Plan.Scheme)
	}
	// Sorted descending by throughput.
	for i := 1; i < len(cands); i++ {
		if cands[i].Throughput > cands[i-1].Throughput {
			t.Fatal("candidates not sorted")
		}
	}
}

func TestEngineFromPlan(t *testing.T) {
	p := Plan{
		Scheme:    "hanayo-w1",
		Cluster:   cluster.FullNVLink(2),
		Model:     nn.Tiny(6, 8, 2, 16, 4, true),
		P:         2,
		D:         1,
		B:         2,
		MicroRows: 1,
	}
	eng, err := p.Engine(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if eng.Schedule().S != 4 {
		t.Fatalf("S=%d", eng.Schedule().S)
	}
}

func TestBestSkipsOOM(t *testing.T) {
	cands := []Candidate{
		{OOM: true, Throughput: 0},
		{Throughput: 5},
	}
	best, ok := Best(cands)
	if !ok || best.Throughput != 5 {
		t.Fatalf("best %+v ok=%v", best, ok)
	}
	if _, ok := Best([]Candidate{{OOM: true}}); ok {
		t.Fatal("all-OOM must return not-ok")
	}
}

func TestPlanErrorPaths(t *testing.T) {
	bad := bertPlan("no-such-scheme", 4, 1)
	if _, err := bad.Schedule(); err == nil {
		t.Fatal("unknown scheme must fail")
	}
	if _, err := bad.Evaluate(); err == nil {
		t.Fatal("evaluate must propagate schedule errors")
	}
	if _, err := bad.Memory(); err == nil {
		t.Fatal("memory must propagate schedule errors")
	}
	if _, err := bad.Throughput(); err == nil {
		t.Fatal("throughput must propagate schedule errors")
	}
	if _, err := bad.Fits(); err == nil {
		t.Fatal("fits must propagate schedule errors")
	}
	if _, err := bad.Engine(1, nil); err == nil {
		t.Fatal("engine must propagate schedule errors")
	}
	zero := bertPlan("dapple", 4, 1)
	zero.B = 0
	if zero.Validate() == nil {
		t.Fatal("zero B must fail validation")
	}
}

func TestAutoTuneDefaults(t *testing.T) {
	// nil fields fall back to documented defaults.
	cands := AutoTune(cluster.FullNVLink(4), nn.BERTStyle(), SearchSpace{})
	if len(cands) == 0 {
		t.Fatal("no candidates with default space")
	}
	if _, ok := Best(cands); !ok {
		t.Fatal("defaults produced no feasible candidate")
	}
}

func TestDefaultSchemes(t *testing.T) {
	got := DefaultSchemes()
	if len(got) != 3 || got[0] != "gpipe" {
		t.Fatalf("default schemes %v", got)
	}
}

// TestAutoTuneParallelRankingMatchesSerial sweeps the same space serially
// (Workers=1), with a full worker pool and with a pool wider than the grid,
// and requires the identical candidate ordering and measurements — the
// parallel sweep must be a pure wall-clock optimization.
func TestAutoTuneParallelRankingMatchesSerial(t *testing.T) {
	cl := cluster.TACC(16)
	model := nn.BERTStyle()
	space := SearchSpace{
		PD:        [][2]int{{4, 4}, {8, 2}, {16, 1}},
		Waves:     []int{1, 2, 4},
		B:         8,
		MicroRows: 2,
	}
	serialSpace := space
	serialSpace.Workers = 1
	serial := AutoTune(cl, model, serialSpace)
	// 8 workers share the 18 cells; 64 ask for a pool wider than the grid,
	// which the sweep clamps to one worker per cell.
	for _, workers := range []int{8, 64} {
		parallelSpace := space
		parallelSpace.Workers = workers
		parallel := AutoTune(cl, model, parallelSpace)

		if len(serial) != len(parallel) {
			t.Fatalf("candidate counts differ: serial %d, %d workers %d", len(serial), workers, len(parallel))
		}
		for i := range serial {
			s, p := serial[i], parallel[i]
			if s.Plan.Scheme != p.Plan.Scheme || s.Plan.P != p.Plan.P || s.Plan.D != p.Plan.D {
				t.Fatalf("rank %d: serial %s P=%d D=%d, %d workers %s P=%d D=%d",
					i, s.Plan.Scheme, s.Plan.P, s.Plan.D, workers, p.Plan.Scheme, p.Plan.P, p.Plan.D)
			}
			if s.Throughput != p.Throughput || s.PeakGB != p.PeakGB || s.OOM != p.OOM {
				t.Fatalf("rank %d (%s): serial (%.6f, %.3f, %v) vs %d workers (%.6f, %.3f, %v)",
					i, s.Plan.Scheme, s.Throughput, s.PeakGB, s.OOM, workers, p.Throughput, p.PeakGB, p.OOM)
			}
		}
	}
}

// TestSweepRunsOneSimPerKey asserts the single-pass discipline of the
// acceptance criteria: an AutoTune sweep issues exactly one sim.Run per
// unique (scheme, P, B), however many candidates (different D, wave
// duplicates) share that key — counted via the core simRuns hook. The
// hook is process-global, so this test (and any future test that issues
// simulations) must not be marked t.Parallel, or the delta window would
// pick up foreign runs.
func TestSweepRunsOneSimPerKey(t *testing.T) {
	cl := cluster.TACC(16)
	space := SearchSpace{
		// Two (P, D) pairs share P=4: all their schemes share sim results.
		PD:        [][2]int{{4, 4}, {4, 2}, {8, 2}},
		Waves:     []int{1, 2},
		B:         4,
		MicroRows: 1,
		Workers:   4,
	}
	// Unique (scheme, P, B) keys: 3 base schemes + 2 waves = 5 schemes,
	// at P∈{4, 8} with fixed B → 10 keys.
	const wantKeys = 10
	before := simRuns.Load()
	cands := AutoTune(cl, nn.BERTStyle(), space)
	if len(cands) == 0 {
		t.Fatal("empty sweep")
	}
	if got := simRuns.Load() - before; got != wantKeys {
		t.Fatalf("sweep issued %d simulations for %d unique (scheme, P, B) keys", got, wantKeys)
	}
}

// TestMixedDGridPerCellValidity: a cell's validity is the cell's, not the
// key's. A grid listing P = 8 under a feasible D (8·4 = 32 devices) and an
// infeasible one (8·8 = 64) shares every (scheme, P, B) key between the
// two, and used to let whichever cell reached the key first decide both —
// ranking a 64-device plan first at twice the real winner's throughput, or
// (listed the other way round) reporting the feasible cells as errors.
// Either order, exhaustive and TopK, serial and parallel, standalone and on
// one shared Tuner: the D = 8 cells carry the device-count error and the
// D = 4 cells equal a sweep of {8, 4} alone bit for bit.
func TestMixedDGridPerCellValidity(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	space := func(pd [][2]int, topK, workers int) SearchSpace {
		return SearchSpace{PD: pd, Waves: []int{1, 2}, B: 8, MicroRows: 1, TopK: topK, Workers: workers}
	}
	alone := AutoTune(cl, model, space([][2]int{{8, 4}}, 0, 1))
	if best, ok := Best(alone); !ok || best.Plan.D != 4 {
		t.Fatalf("the {8,4} grid must rank a feasible plan first: %+v", alone)
	}
	check := func(label string, got []Candidate, topK int) {
		t.Helper()
		var valid []Candidate
		invalid := 0
		for _, c := range got {
			if c.Plan.D == 8 {
				invalid++
				if c.Err == nil || !strings.Contains(c.Err.Error(), "uses 64 devices") || c.Throughput != 0 {
					t.Fatalf("%s: %s P=8 D=8 must carry the device-count error, got %+v", label, c.Plan.Scheme, c)
				}
				continue
			}
			valid = append(valid, c)
		}
		if invalid != len(alone) || len(valid) != len(alone) {
			t.Fatalf("%s: %d valid + %d invalid rows, want %d of each", label, len(valid), invalid, len(alone))
		}
		exact := len(alone)
		if topK > 0 {
			exact = topK // below rank TopK a bounded sweep may surface proven bounds
		}
		if !reflect.DeepEqual(valid[:exact], alone[:exact]) {
			t.Fatalf("%s: the D=4 cells differ from a sweep of {8,4} alone\ngot:  %+v\nwant: %+v",
				label, valid[:exact], alone[:exact])
		}
	}
	orders := [][][2]int{{{8, 4}, {8, 8}}, {{8, 8}, {8, 4}}}
	for _, topK := range []int{0, 2} {
		for _, workers := range []int{1, 4} {
			tn := NewTuner(TunerOptions{Runners: 2}) // shared across both orders: swept twice
			for _, pd := range orders {
				label := fmt.Sprintf("PD=%v TopK=%d workers=%d", pd, topK, workers)
				check(label+" standalone", AutoTune(cl, model, space(pd, topK, workers)), topK)
				check(label+" tuner", tn.AutoTune(cl, model, space(pd, topK, workers)), topK)
			}
		}
	}
}

// TestEvaluateCachedMatchesUncached asserts the sweep's memo is
// transparent: every candidate of a sweep — measured on a worker's
// Generator-owned schedule and shared per (scheme, P, B) key — reports the
// identical numbers as the same plan evaluated cold through Plan.Evaluate,
// and two cells differing only in D share one simulation while each scales
// throughput by its own D.
func TestEvaluateCachedMatchesUncached(t *testing.T) {
	d2 := bertPlan("hanayo-w2", 4, 2)
	d1 := d2
	d1.D = 1 // same (scheme, P, B) key, same cluster
	before := simRuns.Load()
	cands := AutoTuneShard(d2.Cluster, d2.Model, SearchSpace{
		Schemes: []string{}, Waves: []int{2}, PD: [][2]int{{4, 2}, {4, 1}},
		B: d2.B, MicroRows: d2.MicroRows, Workers: 1,
	})
	if got := simRuns.Load() - before; got != 1 {
		t.Fatalf("two cells of one key issued %d simulations, want 1", got)
	}
	if len(cands) != 2 {
		t.Fatalf("%d candidates, want 2", len(cands))
	}
	for i, cold := range []Plan{d2, d1} {
		c := cands[i]
		if c.Plan != cold {
			t.Fatalf("candidate %d carries plan %+v, want %+v", i, c.Plan, cold)
		}
		eu, err := cold.Evaluate()
		if err != nil || c.Err != nil {
			t.Fatal(err, c.Err)
		}
		if c.Throughput != eu.Throughput || c.OOM == eu.Fits || c.PeakGB != eu.Memory.MaxGB() {
			t.Fatalf("D=%d: sweep (%g, oom %v, %g GB) != cold (%g, fits %v, %g GB)", cold.D,
				c.Throughput, c.OOM, c.PeakGB, eu.Throughput, eu.Fits, eu.Memory.MaxGB())
		}
	}
	if got, want := cands[1].Throughput*2, cands[0].Throughput; got != want {
		t.Fatalf("D=1 throughput %g not half of D=2's %g", cands[1].Throughput, cands[0].Throughput)
	}
}

// TestMemoryIsSimFree checks Plan.Memory and Plan.Fits, which judge the
// schedule's own activation peaks: no simulation runs, a fault plan that
// kills a device changes nothing (the simulated Evaluate has no estimate
// for such a plan), the estimate is Evaluate's bit for bit, and a schedule
// error surfaces.
func TestMemoryIsSimFree(t *testing.T) {
	plan := bertPlan("hanayo-w2", 4, 2)
	faulty := plan
	faulty.Faults = &sim.FaultPlan{Events: []sim.FaultEvent{sim.Fail(1, 0.001)}}
	full, err := plan.Evaluate()
	if err != nil {
		t.Fatal(err)
	}
	before := simRuns.Load()
	mem, err := plan.Memory()
	if err != nil {
		t.Fatal(err)
	}
	fmem, err := faulty.Memory()
	if err != nil {
		t.Fatal(err)
	}
	fits, err := plan.Fits()
	if err != nil {
		t.Fatal(err)
	}
	ffits, err := faulty.Fits()
	if err != nil {
		t.Fatal(err)
	}
	if d := simRuns.Load() - before; d != 0 {
		t.Fatalf("Memory and Fits issued %d simulations, want 0", d)
	}
	if fmem == nil {
		t.Fatal("a plan whose fault plan kills a device has no memory estimate")
	}
	sameEstimate := func(label string, got, want *memmodel.Estimate) {
		t.Helper()
		for d := range want.WeightBytes {
			if math.Float64bits(got.WeightBytes[d]) != math.Float64bits(want.WeightBytes[d]) ||
				math.Float64bits(got.ActBytes[d]) != math.Float64bits(want.ActBytes[d]) {
				t.Fatalf("%s device %d: (%v, %v) != (%v, %v)", label, d,
					got.WeightBytes[d], got.ActBytes[d], want.WeightBytes[d], want.ActBytes[d])
			}
		}
		if len(got.WeightBytes) != len(want.WeightBytes) || len(got.ActBytes) != len(want.ActBytes) {
			t.Fatalf("%s: estimate covers %d/%d devices, want %d/%d", label,
				len(got.WeightBytes), len(got.ActBytes), len(want.WeightBytes), len(want.ActBytes))
		}
	}
	sameEstimate("faulty plan", fmem, mem)
	sameEstimate("Evaluate", mem, full.Memory)
	if fits != full.Fits || ffits != fits {
		t.Fatalf("Fits %v, faulty plan %v, Evaluate %v", fits, ffits, full.Fits)
	}
	bad := bertPlan("no-such-scheme", 4, 1)
	if _, err := bad.Memory(); err == nil {
		t.Fatal("unknown scheme must fail Memory")
	}
	if _, err := bad.Fits(); err == nil {
		t.Fatal("unknown scheme must fail Fits")
	}
	if _, err := bad.Evaluate(); err == nil {
		t.Fatal("unknown scheme must fail evaluation")
	}
}

// TestScheduleCacheSharesPrograms proves a sweep keeps one memo per
// (scheme, P, B) program — enumerate hands every cell naming the key the
// same entry, resolve builds its evaluation once (one simulation) and
// serves the same instance to every plan sharing it, whatever its D — and
// that no schedule is shared anywhere: Plan.Schedule compiles a fresh,
// retainable instance per call.
func TestScheduleCacheSharesPrograms(t *testing.T) {
	p1 := bertPlan("hanayo-w2", 4, 2)
	p2 := p1
	p2.D = 1 // different plan, same (scheme, P, B) program
	s := enumerate(p1.Cluster, p1.Model, SearchSpace{Schemes: []string{"hanayo-w2"}, Waves: []int{},
		PD: [][2]int{{p1.P, p1.D}, {p2.P, p2.D}}, B: p1.B, MicroRows: p1.MicroRows}, nil)
	if len(s.cells) != 2 || s.cells[0].memo == nil || s.cells[0].memo != s.cells[1].memo ||
		!s.cells[0].first || s.cells[1].first {
		t.Fatalf("two D of one (scheme, P, B) must lay out as two cells sharing one memo: %+v", s.cells)
	}
	before := simRuns.Load()
	var shared [2]*evalShared
	for i := range shared {
		es, err := s.resolve(&s.cells[i], 0)
		if err != nil {
			t.Fatal(err)
		}
		shared[i] = es
	}
	if builds := simRuns.Load() - before; builds != 1 || shared[0] != shared[1] {
		t.Fatalf("one key built %d evaluations (shared: %v)", builds, shared[0] == shared[1])
	}
	if c1, c2 := candidateFrom(p1, shared[0], nil), candidateFrom(p2, shared[1], nil); c1.Throughput != 2*c2.Throughput {
		t.Fatalf("D=2 candidate %g is not twice D=1's %g", c1.Throughput, c2.Throughput)
	}
	s1, err := p1.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p2.Schedule()
	if err != nil {
		t.Fatal(err)
	}
	if s1 == s2 || &s1.Lists[0][0] == &s2.Lists[0][0] {
		t.Fatal("Plan.Schedule must compile a fresh schedule per call")
	}
	if !reflect.DeepEqual(s1.Lists, s2.Lists) {
		t.Fatal("one (scheme, P, B) program compiled to different lists")
	}
}
