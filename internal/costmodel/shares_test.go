package costmodel

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestSpeedBalancedSharesUniform: on a homogeneous cluster every share is
// exactly 1 — the knob is a no-op when there is nothing to balance.
func TestSpeedBalancedSharesUniform(t *testing.T) {
	cl := cluster.FullNVLink(8)
	for _, scheme := range boundSchemes {
		shares, err := SpeedBalancedShares(cl, scheme, 4, 8)
		if err != nil {
			t.Fatalf("%s: %v", scheme, err)
		}
		for s, v := range shares {
			if math.Abs(v-1) > 1e-12 {
				t.Fatalf("%s: share[%d] = %g on a uniform cluster, want 1", scheme, s, v)
			}
		}
	}
}

// TestSpeedBalancedSharesEqualizeStages: with a straggler, the speed-
// proportional shares make per-stage forward times equal again for every
// single-pipe placement (stage time ∝ share/speed, and share ∝ speed).
func TestSpeedBalancedSharesEqualizeStages(t *testing.T) {
	cl := cluster.FullNVLink(8).WithStraggler(1, 0.5)
	w := Workload{Model: nn.BERTStyle(), MicroRows: 2}
	for _, scheme := range []string{"gpipe", "hanayo-w2", "chimera-wave", "interleaved-v2"} {
		s, err := sched.ByName(scheme, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		cost, err := New(w, cl, s)
		if err != nil {
			t.Fatal(err)
		}
		shares, err := SpeedBalancedShares(cl, scheme, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		sum := 0.0
		for _, v := range shares {
			sum += v
		}
		if math.Abs(sum-float64(s.S)) > 1e-9 {
			t.Fatalf("%s: shares sum to %g, want %d", scheme, sum, s.S)
		}
		cost.Shares = shares
		// Every stage's forward time (on its hosting device) must match.
		sc, err := sched.ParseScheme(scheme)
		if err != nil {
			t.Fatal(err)
		}
		ref := cost.ForwardTime(sc.Device(4, 0, 0), 0)
		for st := 1; st < s.S; st++ {
			got := cost.ForwardTime(sc.Device(4, 0, st), st)
			if math.Abs(got-ref) > ref*1e-9 {
				t.Fatalf("%s: stage %d forward time %g != stage 0's %g", scheme, st, got, ref)
			}
		}
	}
}

// TestSpeedBalancedSharesReduceMakespan: rebalancing must beat the
// uniform split on a stragglered cluster — the point of the knob.
func TestSpeedBalancedSharesReduceMakespan(t *testing.T) {
	cl := cluster.FullNVLink(8).WithStraggler(1, 0.5)
	w := Workload{Model: nn.BERTStyle(), MicroRows: 2}
	s, err := sched.ByName("hanayo-w2", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cost, err := New(w, cl, s)
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := sim.Run(s, cost, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	shares, err := SpeedBalancedShares(cl, "hanayo-w2", 4, 8)
	if err != nil {
		t.Fatal(err)
	}
	cost.Shares = shares
	balanced, err := sim.Run(s, cost, sim.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if balanced.Makespan >= uniform.Makespan {
		t.Fatalf("speed-balanced makespan %g, want < uniform %g", balanced.Makespan, uniform.Makespan)
	}
}

// TestSpeedBalancedSharesErrors: bad scheme names and device budgets
// surface as errors, not bogus shares.
func TestSpeedBalancedSharesErrors(t *testing.T) {
	cl := cluster.FullNVLink(4)
	if _, err := SpeedBalancedShares(cl, "nosuch", 4, 8); err == nil {
		t.Fatal("unknown scheme must error")
	}
	if _, err := SpeedBalancedShares(cl, "gpipe", 8, 8); err == nil {
		t.Fatal("p beyond the cluster must error")
	}
	if _, err := SpeedBalancedShares(cl, "chimera", 4, 7); err == nil {
		t.Fatal("odd B on a bidirectional scheme must error")
	}
}
