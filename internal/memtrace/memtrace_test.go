package memtrace_test

import (
	"slices"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/memmodel"
	"repro/internal/memtrace"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/sim"
)

// TestPeaksMatchSimulator asserts the activation-peak scan
// (sched.Schedule.PeakActs, which the replay reports) equals the count the
// timing simulator keeps as it runs, across every scheme family and shape:
// both walk identical action lists, so residency must agree regardless of
// timing.
func TestPeaksMatchSimulator(t *testing.T) {
	cfg := nn.BERTStyle()
	for _, scheme := range []string{"gpipe", "dapple", "chimera", "chimera-wave",
		"hanayo-w1", "hanayo-w2", "hanayo-w4", "interleaved-v2", "gems", "zbh1"} {
		for _, shape := range []struct{ p, b int }{{4, 4}, {4, 8}, {8, 8}} {
			s, err := sched.ByName(scheme, shape.p, shape.b)
			if err != nil {
				t.Fatalf("%s P=%d B=%d: %v", scheme, shape.p, shape.b, err)
			}
			per := float64(s.S) / float64(s.P)
			r, err := sim.Run(s, costmodel.Uniform{Tf: 1 / per, Tb: 2 / per, Tc: 0.05}, sim.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}
			mt, err := memtrace.Run(s, cfg, 2)
			if err != nil {
				t.Fatal(err)
			}
			scan := s.PeakActs(nil)
			for d := 0; d < s.P; d++ {
				if scan[d] != r.PeakActs[d] {
					t.Errorf("%s P=%d B=%d device %d: scanned peak %d, sim peak %d",
						scheme, shape.p, shape.b, d, scan[d], r.PeakActs[d])
				}
				if mt.PeakActs[d] != r.PeakActs[d] {
					t.Errorf("%s P=%d B=%d device %d: memtrace peak %d, sim peak %d",
						scheme, shape.p, shape.b, d, mt.PeakActs[d], r.PeakActs[d])
				}
			}
		}
	}
}

// TestAnalyticPeakActsCoverReplay holds memmodel's analytic peaks — the
// generator's inflight caps summed over each device's hosted chunks, each
// capped by its pipe's micro-batches — to the replay: never below the
// measured peak on any device of any scheme, and exact for the schemes
// whose caps are reached (gpipe, dapple, gems, zbh1).
func TestAnalyticPeakActsCoverReplay(t *testing.T) {
	exact := map[string]bool{"gpipe": true, "dapple": true, "gems": true, "zbh1": true}
	for _, scheme := range []string{"gpipe", "dapple", "chimera", "chimera-wave",
		"hanayo-w1", "hanayo-w2", "hanayo-w4", "interleaved-v2", "gems", "zbh1"} {
		for _, shape := range []struct{ p, b int }{{4, 8}, {8, 8}, {4, 16}} {
			s, err := sched.ByName(scheme, shape.p, shape.b)
			if err != nil {
				t.Fatalf("%s P=%d B=%d: %v", scheme, shape.p, shape.b, err)
			}
			mt, err := memtrace.Run(s, nn.BERTStyle(), 2)
			if err != nil {
				t.Fatal(err)
			}
			analytic := memmodel.AnalyticPeakActs(s)
			for d := 0; d < s.P; d++ {
				if got, bound := mt.PeakActs[d], analytic[d]; got > bound || exact[scheme] && got != bound {
					t.Errorf("%s P=%d B=%d device %d: measured peak %d, analytic %d (measured %v, analytic %v)",
						scheme, shape.p, shape.b, d, got, bound, mt.PeakActs, analytic)
				}
			}
		}
	}
}

// TestZBH1PeakBelowFused is the zero-bubble split's memory claim, measured
// rather than argued: at equal (P, B), zbh1's replayed peak live bytes
// never exceed fused 1F1B's on any device, and at the Fig 10 sweep shape
// (P=8, B=16) the maximum peak is STRICTLY below it — the input-grad half
// releases each activation a full weight-grad slot earlier, and zbh1's
// tighter inflight cap (⌈2(P−1−s)/3⌉+1 < P−s) turns that into fewer
// resident activations, not just earlier frees.
func TestZBH1PeakBelowFused(t *testing.T) {
	cfg := nn.BERTStyle()
	for _, shape := range []struct{ p, b int }{{4, 4}, {4, 8}, {8, 8}, {8, 16}} {
		zs, err := sched.ZBH1(shape.p, shape.b)
		if err != nil {
			t.Fatalf("zbh1 P=%d B=%d: %v", shape.p, shape.b, err)
		}
		ds, err := sched.DAPPLE(shape.p, shape.b)
		if err != nil {
			t.Fatalf("dapple P=%d B=%d: %v", shape.p, shape.b, err)
		}
		zm, err := memtrace.Run(zs, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		dm, err := memtrace.Run(ds, cfg, 2)
		if err != nil {
			t.Fatal(err)
		}
		zMax, dMax := 0.0, 0.0
		for d := 0; d < shape.p; d++ {
			if zm.PeakBytes[d] > dm.PeakBytes[d] {
				t.Errorf("P=%d B=%d device %d: zbh1 peak %g above fused 1F1B peak %g",
					shape.p, shape.b, d, zm.PeakBytes[d], dm.PeakBytes[d])
			}
			if zm.PeakBytes[d] > zMax {
				zMax = zm.PeakBytes[d]
			}
			if dm.PeakBytes[d] > dMax {
				dMax = dm.PeakBytes[d]
			}
		}
		if shape.p == 8 && shape.b == 16 && zMax >= dMax {
			t.Errorf("fig10 shape P=8 B=16: zbh1 max peak %g not strictly below fused %g", zMax, dMax)
		}
	}
}

// TestCurvesBalance asserts every device's live-byte curve ends at zero
// (each forward's bytes freed by its backward), stays non-negative, and
// its maximum matches the reported PeakBytes.
func TestCurvesBalance(t *testing.T) {
	s, err := sched.Hanayo(8, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	mt, err := memtrace.Run(s, nn.BERTStyle(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for d, curve := range mt.Curves {
		if len(curve) == 0 {
			t.Fatalf("device %d: empty curve", d)
		}
		maxB := 0.0
		for _, smp := range curve {
			if smp.Bytes < -1e-6 {
				t.Fatalf("device %d op %d: negative live bytes %g", d, smp.Op, smp.Bytes)
			}
			if smp.Bytes > maxB {
				maxB = smp.Bytes
			}
		}
		if last := curve[len(curve)-1].Bytes; last > 1e-6 {
			t.Errorf("device %d: curve ends at %g bytes, want 0", d, last)
		}
		if maxB != mt.PeakBytes[d] {
			t.Errorf("device %d: curve max %g != PeakBytes %g", d, maxB, mt.PeakBytes[d])
		}
		// One sample per compute op.
		n := 0
		for _, a := range s.Lists[d] {
			if a.Kind.IsCompute() {
				n++
			}
		}
		if len(curve) != n {
			t.Errorf("device %d: %d samples for %d compute ops", d, len(curve), n)
		}
	}
}

// TestPeakBytesScaleWithRows doubles the micro-batch rows and expects the
// measured peak bytes to grow (LayerActBytes is increasing in rows).
func TestPeakBytesScaleWithRows(t *testing.T) {
	s, err := sched.DAPPLE(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	small, err := memtrace.Run(s, nn.BERTStyle(), 1)
	if err != nil {
		t.Fatal(err)
	}
	big, err := memtrace.Run(s, nn.BERTStyle(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for d := range small.PeakBytes {
		if big.PeakBytes[d] <= small.PeakBytes[d] {
			t.Fatalf("device %d: rows=2 peak %g not above rows=1 peak %g",
				d, big.PeakBytes[d], small.PeakBytes[d])
		}
	}
}

// TestRunValidatesRows rejects non-positive rows.
func TestRunValidatesRows(t *testing.T) {
	s, err := sched.DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := memtrace.Run(s, nn.BERTStyle(), 0); err == nil {
		t.Fatal("rows=0 must fail")
	}
}

// TestRunRejectsUnexecutable: the one-shot Run validates its schedule, so
// a hand-built list whose send has no matching receive is an error rather
// than a curve.
func TestRunRejectsUnexecutable(t *testing.T) {
	s, err := sched.DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	list := s.Lists[1]
	i := slices.IndexFunc(list, func(a sched.Action) bool { return a.Kind == sched.OpRecvAct })
	if i < 0 {
		t.Fatal("device 1 receives no activation")
	}
	s.Lists[1] = slices.Delete(list, i, i+1)
	if _, err := memtrace.Run(s, nn.BERTStyle(), 1); err == nil {
		t.Fatal("a schedule with an unmatched send must fail")
	}
}
