package sim

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/nn"
	"repro/internal/sched"
)

// allSchemes is every scheme of the golden parity table — the full set a
// Runner must replay interchangeably.
var allSchemes = []string{
	"gpipe", "dapple", "chimera", "chimera-wave",
	"hanayo-w1", "hanayo-w2", "hanayo-w4", "interleaved-v2", "gems", "zbh1",
}

// resultsEqual compares two results field-for-field, bit-for-bit (no
// tolerance: the Runner executes the identical arithmetic on reused
// storage, so any drift is a reuse bug, not rounding).
func resultsEqual(t *testing.T, label string, got, want *Result) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Errorf("%s: makespan %g != %g", label, got.Makespan, want.Makespan)
	}
	if got.Zones != want.Zones {
		t.Errorf("%s: zones %v != %v", label, got.Zones, want.Zones)
	}
	if len(got.Busy) != len(want.Busy) {
		t.Fatalf("%s: device count %d != %d", label, len(got.Busy), len(want.Busy))
	}
	for d := range want.Busy {
		if got.Busy[d] != want.Busy[d] || got.End[d] != want.End[d] || got.PeakActs[d] != want.PeakActs[d] {
			t.Errorf("%s: device %d (busy %g end %g peak %d) != (busy %g end %g peak %d)",
				label, d, got.Busy[d], got.End[d], got.PeakActs[d],
				want.Busy[d], want.End[d], want.PeakActs[d])
		}
	}
	if len(got.Records()) != len(want.Records()) {
		t.Fatalf("%s: record device count %d != %d", label, len(got.Records()), len(want.Records()))
	}
	for d := range want.Records() {
		if len(got.Records()[d]) != len(want.Records()[d]) {
			t.Fatalf("%s: device %d timeline length %d != %d",
				label, d, len(got.Records()[d]), len(want.Records()[d]))
		}
		for i := range want.Records()[d] {
			if got.Records()[d][i] != want.Records()[d][i] {
				t.Errorf("%s: device %d record %d %+v != %+v",
					label, d, i, got.Records()[d][i], want.Records()[d][i])
			}
		}
	}
}

// TestRunnerRegrowthMatchesFreshRuns is the arena re-growth correctness
// test: one Runner reused across ascending then descending (P, B) shapes,
// for all nine schemes, must produce results identical to fresh sim.Run
// calls — shrinking back to a small shape after a large one must not leak
// any state from the bigger arenas (stale transfers, oversized slices,
// leftover zone totals).
func TestRunnerRegrowthMatchesFreshRuns(t *testing.T) {
	shapes := [][2]int{{2, 4}, {4, 8}, {8, 16}, {4, 4}, {2, 2}}
	r := NewRunner()
	for _, scheme := range allSchemes {
		for _, shape := range shapes {
			p, b := shape[0], shape[1]
			s, err := sched.ByName(scheme, p, b)
			if err != nil {
				t.Fatalf("%s P=%d B=%d: %v", scheme, p, b, err)
			}
			per := float64(s.S) / float64(s.P)
			cost := costmodel.Uniform{Tf: 1 / per, Tb: 2 / per, Tc: 0.05}
			for _, opt := range []Options{
				DefaultOptions(),
				{Prefetch: false, BatchComm: true},
				{Prefetch: true, BatchComm: true, FlushTime: 0.5},
			} {
				fresh, err := Run(s, cost, opt)
				if err != nil {
					t.Fatalf("%s P=%d B=%d fresh: %v", scheme, p, b, err)
				}
				reused, err := r.Run(s, cost, opt)
				if err != nil {
					t.Fatalf("%s P=%d B=%d reused: %v", scheme, p, b, err)
				}
				label := scheme
				resultsEqual(t, label, reused, fresh)
			}
		}
	}
}

// TestRunnerResultInvalidation documents the ownership contract: the
// Result returned by Runner.Run is rewritten in place by the next Run.
func TestRunnerResultInvalidation(t *testing.T) {
	s1, err := sched.DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := sched.GPipe(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	cost := costmodel.Uniform{Tf: 1, Tb: 2, Tc: 0.05}
	r := NewRunner()
	first, err := r.Run(s1, cost, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	second, err := r.Run(s2, cost, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if first != second {
		t.Fatal("Runner must return its single owned Result")
	}
	if first.Schedule != s2 {
		t.Fatal("the owned Result must describe the latest run")
	}
}

// TestRunnerAllocsZero pins the tentpole number: after warmup on the
// schedule's shape, repeated Runner.Run calls allocate nothing — not even
// the fixed setup block the one-shot Run pays.
func TestRunnerAllocsZero(t *testing.T) {
	s, err := sched.Hanayo(8, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(s.S) / float64(s.P)
	var cost Cost = costmodel.Uniform{Tf: 1 / per, Tb: 2 / per, Tc: 0.05}
	r := NewRunner()
	if _, err := r.Run(s, cost, DefaultOptions()); err != nil { // warm the arenas
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := r.Run(s, cost, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state Runner.Run allocates %.1f times per run, want 0", allocs)
	}
}

// BenchmarkSimulateFig10 simulates, per op, the 21 schedules of a cold Fig
// 10 sweep on one reused Runner under the tacc cost model: P ∈ {8, 16, 32}
// × the three baselines and Hanayo at 1, 2, 4 and 8 waves, B = 16 — one
// sweep's simulation stage, as BenchmarkGenerateFig10 is its compile stage.
func BenchmarkSimulateFig10(b *testing.B) {
	type cell struct {
		s    *sched.Schedule
		cost Cost
	}
	var cells []cell
	w := costmodel.Workload{Model: nn.BERTStyle(), MicroRows: 2}
	cl := cluster.TACC(32)
	for _, p := range []int{8, 16, 32} {
		for _, sc := range []string{"gpipe", "dapple", "chimera-wave", "hanayo-w1", "hanayo-w2", "hanayo-w4", "hanayo-w8"} {
			s, err := sched.ByName(sc, p, 16)
			if err != nil {
				b.Fatal(err)
			}
			cost, err := costmodel.New(w, cl, s)
			if err != nil {
				b.Fatal(err)
			}
			cells = append(cells, cell{s, cost})
		}
	}
	r := NewRunner()
	for b.Loop() {
		for _, c := range cells {
			if _, err := r.Run(c.s, c.cost, DefaultOptions()); err != nil {
				b.Fatal(err)
			}
		}
	}
}
