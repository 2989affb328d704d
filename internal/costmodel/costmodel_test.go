package costmodel

import (
	"testing"

	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/sched"
)

func TestLayerFLOPsScaleQuadraticInHidden(t *testing.T) {
	a := nn.Config{Layers: 1, Hidden: 1024, Heads: 16, Vocab: 100, SeqLen: 128}
	b := a
	b.Hidden = 2048
	ra := LayerForwardFLOPs(a, 1)
	rb := LayerForwardFLOPs(b, 1)
	if rb/ra < 3.5 || rb/ra > 4.1 {
		t.Fatalf("doubling hidden gave ratio %g, want ≈4", rb/ra)
	}
}

func TestActivationBytes(t *testing.T) {
	cfg := nn.Config{Layers: 1, Hidden: 8, Heads: 2, Vocab: 10, SeqLen: 4}
	if got := ActivationBytes(cfg, 3); got != 3*4*8*2 {
		t.Fatalf("bytes %g", got)
	}
}

func TestCostStagesSplitWork(t *testing.T) {
	cfg := nn.GPTStyle()
	cl := cluster.FullNVLink(8)
	s8, err := sched.DAPPLE(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	c8, err := New(Workload{Model: cfg, MicroRows: 2}, cl, s8)
	if err != nil {
		t.Fatal(err)
	}
	h, err := sched.Hanayo(8, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	ch, err := New(Workload{Model: cfg, MicroRows: 2}, cl, h)
	if err != nil {
		t.Fatal(err)
	}
	// Hanayo W=2 has 4× the stages, so per-stage time is 4× smaller while
	// the per-device total matches.
	r := c8.ForwardTime(0, 0) / ch.ForwardTime(0, 0)
	if r < 3.9 || r > 4.1 {
		t.Fatalf("stage-time ratio %g, want 4", r)
	}
	if c8.BackwardTime(0, 0) != 2*c8.ForwardTime(0, 0) {
		t.Fatal("backward must be 2× forward")
	}
}

func TestCommTimeUsesCluster(t *testing.T) {
	cfg := nn.BERTStyle()
	cl := cluster.PartialNVLink(8)
	s, err := sched.DAPPLE(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	c, err := New(Workload{Model: cfg, MicroRows: 2}, cl, s)
	if err != nil {
		t.Fatal(err)
	}
	if c.CommTime(0, 1) >= c.CommTime(0, 2) {
		t.Fatal("NVLink pair must be faster than PCIe")
	}
}

func TestNewValidates(t *testing.T) {
	cfg := nn.BERTStyle()
	s, err := sched.DAPPLE(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Workload{Model: cfg, MicroRows: 0}, cluster.FullNVLink(8), s); err == nil {
		t.Fatal("expected error for zero rows")
	}
	if _, err := New(Workload{Model: cfg, MicroRows: 2}, cluster.FullNVLink(4), s); err == nil {
		t.Fatal("expected error for too-small cluster")
	}
}

func TestUniform(t *testing.T) {
	u := Uniform{Tf: 1, Tb: 2, Tc: 0.5}
	if u.ForwardTime(0, 0) != 1 || u.BackwardTime(0, 0) != 2 {
		t.Fatal("uniform compute times")
	}
	if u.CommTime(1, 1) != 0 || u.CommTime(0, 1) != 0.5 {
		t.Fatal("uniform comm times")
	}
}

// TestDenseTablesMatchFormulas asserts that every lookup returns, bit for
// bit, what the FLOP formulas derive — the stage's FLOPs over the device's
// rate, twice that for the backward, the link's transfer time — for every
// scheme family on a cluster with a straggler (so device rates differ), and
// beyond the schedule's devices, where lookups fall back to the cluster
// instead of reading past the tables.
func TestDenseTablesMatchFormulas(t *testing.T) {
	cfg := nn.GPTStyle()
	cl := cluster.PartialNVLink(16).WithStraggler(3, 0.5) // bigger than the schedule: exercises fallback
	for _, scheme := range []string{"gpipe", "dapple", "chimera", "chimera-wave", "gems", "zbh1",
		"hanayo-w2", "hanayo-w4", "interleaved-v2"} {
		s, err := sched.ByName(scheme, 8, 8)
		if err != nil {
			t.Fatal(err)
		}
		c, err := New(Workload{Model: cfg, MicroRows: 2}, cl, s)
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < 12; d++ { // 8..11 lie beyond the schedule
			for st := 0; st < s.S; st++ {
				fwd := float64(cfg.Layers) / float64(s.S) * LayerForwardFLOPs(cfg, 2) / cl.Flops(d)
				if got := c.ForwardTime(d, st); got != fwd {
					t.Fatalf("%s fwd(%d,%d) = %g, formula %g", scheme, d, st, got, fwd)
				}
				if got := c.BackwardTime(d, st); got != 2*fwd {
					t.Fatalf("%s bwd(%d,%d) = %g, formula %g", scheme, d, st, got, 2*fwd)
				}
			}
			for dst := 0; dst < 12; dst++ {
				if got, want := c.CommTime(d, dst), cl.CommTime(d, dst, ActivationBytes(cfg, 2)); got != want {
					t.Fatalf("%s comm(%d,%d) = %g, formula %g", scheme, d, dst, got, want)
				}
			}
		}
	}
}
