package costmodel

import (
	"fmt"
	"testing"

	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/sim"
)

// boundSchemes is the full sweep-scheme set the bound must cover, the
// zero-bubble split zbh1 included: its simulated compute per (stage,
// micro) is BI + BW = fused B, so the fused certificates must still floor
// its makespan.
var boundSchemes = []string{
	"gpipe", "dapple", "chimera", "chimera-wave",
	"hanayo-w1", "hanayo-w2", "hanayo-w4", "interleaved-v2", "gems", "zbh1",
}

// TestLowerBoundNeverExceedsSimulation is the soundness property the
// bound-and-prune sweep rests on: for every scheme × golden (P, B) shape ×
// cluster × executor option set, the analytic bound must sit at or below
// the simulated makespan (a bound that overshoots would prune cells that
// belong in the exact top-K).
func TestLowerBoundNeverExceedsSimulation(t *testing.T) {
	shapes := [][2]int{{2, 4}, {4, 8}, {8, 8}, {8, 16}}
	clusters := []*cluster.Cluster{
		cluster.TACC(8), cluster.Tencent(8), cluster.PartialNVLink(8), cluster.FullNVLink(8),
	}
	opts := []sim.Options{
		sim.DefaultOptions(),
		{Prefetch: false, BatchComm: true},
		{Prefetch: true, BatchComm: true, FlushTime: 0.01},
	}
	model := nn.BERTStyle()
	for _, cl := range clusters {
		for _, scheme := range boundSchemes {
			for _, shape := range shapes {
				p, b := shape[0], shape[1]
				s, err := sched.ByName(scheme, p, b)
				if err != nil {
					t.Fatalf("%s p=%d b=%d: %v", scheme, p, b, err)
				}
				w := Workload{Model: model, MicroRows: 2}
				cost, err := New(w, cl, s)
				if err != nil {
					t.Fatal(err)
				}
				lb, err := LowerBound(w, cl, p, 1, b, scheme)
				if err != nil {
					t.Fatalf("LowerBound(%s, p=%d, b=%d): %v", scheme, p, b, err)
				}
				if lb <= 0 {
					t.Fatalf("LowerBound(%s, p=%d, b=%d) = %g, want > 0", scheme, p, b, lb)
				}
				for oi, opt := range opts {
					r, err := sim.Run(s, cost, opt)
					if err != nil {
						t.Fatalf("sim %s p=%d b=%d opt=%d: %v", scheme, p, b, oi, err)
					}
					// A hair of float slack: the bound and the simulator sum
					// the same terms in different orders.
					if lb > r.Makespan*(1+1e-9) {
						t.Errorf("%s on %s p=%d b=%d opt=%d: LowerBound %.9g exceeds simulated makespan %.9g",
							scheme, cl.Name, p, b, oi, lb, r.Makespan)
					}
				}
			}
		}
	}
}

// TestLowerBoundTracksCompute pins the bound's quality floor on a uniform
// cluster: it must at least cover the busiest device's raw compute, which
// for a balanced placement is B·Layers·LayerFLOPs/(P·Flops)·3.
func TestLowerBoundTracksCompute(t *testing.T) {
	cl := cluster.FullNVLink(8)
	model := nn.BERTStyle()
	w := Workload{Model: model, MicroRows: 2}
	p, b := 8, 16
	lb, err := LowerBound(w, cl, p, 1, b, "hanayo-w2")
	if err != nil {
		t.Fatal(err)
	}
	perDev := float64(b) * float64(model.Layers) / float64(p) * LayerForwardFLOPs(model, 2) / cl.Flops(0) * 3
	if lb < perDev*(1-1e-9) {
		t.Fatalf("bound %g below the busiest device's compute %g", lb, perDev)
	}
}

// TestLowerBoundErrors covers the validation surface: bad shapes, unknown
// schemes, odd micro-batch counts for the bidirectional placements — and,
// since both read one scheme descriptor, LowerBound accepts exactly the
// names and micro-batch counts Generate does.
func TestLowerBoundErrors(t *testing.T) {
	cl := cluster.TACC(8)
	w := Workload{Model: nn.BERTStyle(), MicroRows: 2}
	cases := []struct {
		p, d, b int
		scheme  string
	}{
		{0, 1, 8, "gpipe"},
		{4, 0, 8, "gpipe"},
		{4, 1, 0, "gpipe"},
		{8, 2, 8, "gpipe"}, // 16 devices on an 8-device cluster
		{4, 1, 7, "chimera"},
		{4, 1, 7, "gems"},
		{4, 1, 8, "nosuch-scheme"},
		{4, 1, 8, "hanayo-w0"},
	}
	for _, c := range cases {
		if _, err := LowerBound(w, cl, c.p, c.d, c.b, c.scheme); err == nil {
			t.Errorf("LowerBound(p=%d,d=%d,b=%d,%q): want error", c.p, c.d, c.b, c.scheme)
		}
	}
	for _, c := range []struct {
		scheme string
		p, b   int
	}{{"nope", 4, 8}, {"hanayo-w0", 4, 8}, {"interleaved-v", 4, 8}, {"chimera", 4, 7}, {"gems", 4, 7},
		{"chimera", 4, 8}, {"gems", 4, 8}, {"1f1b", 4, 7}, {"hanayo-w3", 4, 7},
		{"gpipe", 0, 8}, {"hanayo-w2", 0, 8}, {"dapple", -1, 8}, {"zbh1", -1, 8}} {
		_, lbErr := LowerBound(w, cl, c.p, 1, c.b, c.scheme)
		_, genErr := sched.ByName(c.scheme, c.p, c.b)
		if (lbErr == nil) != (genErr == nil) {
			t.Errorf("%s P=%d B=%d: LowerBound error %v, Generate error %v", c.scheme, c.p, c.b, lbErr, genErr)
		}
	}
	bad := w
	bad.MicroRows = 0
	if _, err := LowerBound(bad, cl, 4, 1, 8, "gpipe"); err == nil {
		t.Error("MicroRows=0: want error")
	}
}

// TestLowerBoundAllocsZero pins the bound's allocation budget: the sweep
// computes one bound per grid cell before any evaluation, so it must not
// allocate at all.
func TestLowerBoundAllocsZero(t *testing.T) {
	cl := cluster.TACC(32)
	w := Workload{Model: nn.BERTStyle(), MicroRows: 2}
	for _, scheme := range boundSchemes {
		scheme := scheme
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := LowerBound(w, cl, 8, 4, 16, scheme); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: LowerBound allocates %.1f/op, want 0", scheme, allocs)
		}
	}
}

// TestLowerBoundDInvariant: D only validates device budget; the
// per-replica bound itself must not depend on it.
func TestLowerBoundDInvariant(t *testing.T) {
	cl := cluster.TACC(32)
	w := Workload{Model: nn.BERTStyle(), MicroRows: 2}
	a, err := LowerBound(w, cl, 8, 1, 16, "hanayo-w2")
	if err != nil {
		t.Fatal(err)
	}
	b, err := LowerBound(w, cl, 8, 4, 16, "hanayo-w2")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("bound depends on D: %g vs %g", a, b)
	}
}

func ExampleLowerBound() {
	cl := cluster.TACC(32)
	w := Workload{Model: nn.BERTStyle(), MicroRows: 2}
	lb, _ := LowerBound(w, cl, 8, 4, 16, "hanayo-w2")
	fmt.Println(lb > 0)
	// Output: true
}
