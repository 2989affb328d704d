package memmodel

import (
	"math"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/tensor"
)

func mustSched(t *testing.T) func(s *sched.Schedule, err error) *sched.Schedule {
	return func(s *sched.Schedule, err error) *sched.Schedule {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
}

func TestParamsPerLayerScale(t *testing.T) {
	cfg := nn.BERTStyle()
	got := ParamsPerLayer(cfg)
	want := 12.0 * 2560 * 2560 // dominant term
	if got < want || got > want*1.01 {
		t.Fatalf("params per layer %g outside [%g, %g]", got, want, want*1.01)
	}
}

func TestModelSizeBERT(t *testing.T) {
	// 64 layers × 12·2560² ≈ 5.0B params → ~81 GB of training state.
	gb := ModelSizeGB(nn.BERTStyle())
	if gb < 70 || gb > 95 {
		t.Fatalf("BERT-style model size %g GB outside expected band", gb)
	}
}

func TestChimeraDoublesWeights(t *testing.T) {
	cfg := nn.BERTStyle()
	ch := mustSched(t)(sched.Chimera(8, 8))
	hw := mustSched(t)(sched.Hanayo(8, 1, 8))
	peakCh := AnalyticPeakActs(ch)
	peakHw := AnalyticPeakActs(hw)
	ech := ForSchedule(ch, cfg, 2, peakCh)
	ehw := ForSchedule(hw, cfg, 2, peakHw)
	// Chimera stores 2 model copies → roughly 2× weight bytes per device.
	ratio := ech.WeightBytes[0] / ehw.WeightBytes[0]
	if ratio < 1.7 || ratio > 2.1 {
		t.Fatalf("chimera/hanayo weight ratio %g, want ≈2", ratio)
	}
}

func TestGPipeActsDominateDAPPLE(t *testing.T) {
	cfg := nn.BERTStyle()
	g := mustSched(t)(sched.GPipe(8, 8))
	d := mustSched(t)(sched.DAPPLE(8, 8))
	eg := ForSchedule(g, cfg, 2, AnalyticPeakActs(g))
	ed := ForSchedule(d, cfg, 2, AnalyticPeakActs(d))
	// GPipe's last device stores B activations, DAPPLE's stores 1.
	last := 7
	if eg.ActBytes[last] <= ed.ActBytes[last] {
		t.Fatalf("gpipe last-device acts %g not above dapple %g", eg.ActBytes[last], ed.ActBytes[last])
	}
	// And GPipe's max must be ≥ DAPPLE's max.
	if eg.MaxGB() < ed.MaxGB() {
		t.Fatalf("gpipe max %g below dapple max %g", eg.MaxGB(), ed.MaxGB())
	}
}

// TestAnalyticPeakActsCoverScan holds the analytic peaks — the generator's
// inflight caps summed over each device's hosted chunks, each capped by
// its pipe's micro-batches — to the schedule's own scan
// (sched.Schedule.PeakActs): never below it on any device of any scheme,
// and exact for the schemes whose caps are reached (gpipe, dapple, gems,
// zbh1).
func TestAnalyticPeakActsCoverScan(t *testing.T) {
	exact := map[string]bool{"gpipe": true, "dapple": true, "gems": true, "zbh1": true}
	for _, scheme := range []string{"gpipe", "dapple", "chimera", "chimera-wave",
		"hanayo-w1", "hanayo-w2", "hanayo-w4", "interleaved-v2", "gems", "zbh1"} {
		for _, shape := range []struct{ p, b int }{{4, 8}, {8, 8}, {4, 16}} {
			s, err := sched.ByName(scheme, shape.p, shape.b)
			if err != nil {
				t.Fatalf("%s P=%d B=%d: %v", scheme, shape.p, shape.b, err)
			}
			scan, analytic := s.PeakActs(nil), AnalyticPeakActs(s)
			for d := 0; d < s.P; d++ {
				if got, bound := scan[d], analytic[d]; got > bound || exact[scheme] && got != bound {
					t.Errorf("%s P=%d B=%d device %d: scanned peak %d, analytic %d (scanned %v, analytic %v)",
						scheme, shape.p, shape.b, d, got, bound, scan, analytic)
				}
			}
		}
	}
}

// TestZBH1PeakBelowFused is the zero-bubble split's memory claim, counted
// rather than argued: at equal (P, B), zbh1's peak live activations never
// exceed fused 1F1B's on any device, and at the Fig 10 sweep shape (P=8,
// B=16) the maximum peak is STRICTLY below it — the input-grad half
// releases each activation a full weight-grad slot earlier, and zbh1's
// tighter inflight cap (⌈2(P−1−s)/3⌉+1 < P−s) turns that into fewer
// resident activations, not just earlier frees. Both schemes cut the model
// into P stages, so one activation holds the same bytes in each and the
// counts compare as bytes would.
func TestZBH1PeakBelowFused(t *testing.T) {
	for _, shape := range []struct{ p, b int }{{4, 4}, {4, 8}, {8, 8}, {8, 16}} {
		zs := mustSched(t)(sched.ZBH1(shape.p, shape.b))
		ds := mustSched(t)(sched.DAPPLE(shape.p, shape.b))
		if zs.S != ds.S {
			t.Fatalf("P=%d: zbh1 has %d stages, dapple %d", shape.p, zs.S, ds.S)
		}
		zp, dp := zs.PeakActs(nil), ds.PeakActs(nil)
		for d := 0; d < shape.p; d++ {
			if zp[d] > dp[d] {
				t.Errorf("P=%d B=%d device %d: zbh1 peak %d above fused 1F1B peak %d", shape.p, shape.b, d, zp[d], dp[d])
			}
		}
		if shape.p == 8 && shape.b == 16 && slices.Max(zp) >= slices.Max(dp) {
			t.Errorf("fig10 shape P=8 B=16: zbh1 max peak %d not strictly below fused %d", slices.Max(zp), slices.Max(dp))
		}
	}
}

func TestHanayoMoreBalancedThanDAPPLE(t *testing.T) {
	cfg := nn.BERTStyle()
	d := mustSched(t)(sched.DAPPLE(8, 8))
	h := mustSched(t)(sched.Hanayo(8, 2, 8))
	ed := ForSchedule(d, cfg, 2, AnalyticPeakActs(d))
	eh := ForSchedule(h, cfg, 2, AnalyticPeakActs(h))
	if eh.VarianceGB() >= ed.VarianceGB() {
		t.Fatalf("hanayo variance %g not below dapple %g", eh.VarianceGB(), ed.VarianceGB())
	}
}

func TestFitsCluster(t *testing.T) {
	cfg := nn.BERTStyle()
	s := mustSched(t)(sched.Hanayo(8, 2, 8))
	e := ForSchedule(s, cfg, 2, AnalyticPeakActs(s))
	big := cluster.FullNVLink(8) // 80 GB devices
	if !FitsCluster(e, big, 0.95) {
		t.Fatalf("BERT/8-way (max %.1f GB) should fit 80 GB devices", e.MaxGB())
	}
	small := cluster.Tencent(8) // 32 GB devices
	gp := mustSched(t)(sched.GPipe(8, 8))
	eg := ForSchedule(gp, cfg, 4, AnalyticPeakActs(gp))
	if FitsCluster(eg, small, 0.95) {
		t.Fatalf("GPipe with big batches (max %.1f GB) should OOM a 32 GB device", eg.MaxGB())
	}
}

func TestAnalyticPeakActsBounds(t *testing.T) {
	f := func(seed uint64) bool {
		r := tensor.NewRNG(seed)
		p := 2 + r.Intn(6)
		b := 2 * (1 + r.Intn(4))
		var s *sched.Schedule
		var err error
		switch r.Intn(3) {
		case 0:
			s, err = sched.GPipe(p, b)
		case 1:
			s, err = sched.DAPPLE(p, b)
		default:
			s, err = sched.Hanayo(p, 1+r.Intn(3), b)
		}
		if err != nil {
			return false
		}
		peaks := AnalyticPeakActs(s)
		for _, pk := range peaks {
			// Never more than B per hosted chunk.
			if pk < 1 || pk > b*len(s.Mapping.Hosted(0))*2 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// requiredDevices returns the minimum pipeline depth so that weights alone
// fit the device memory with the given margin.
func requiredDevices(cfg nn.Config, memGB, margin float64) int {
	per := memGB * margin
	return int(math.Ceil(ModelSizeGB(cfg) / per))
}

func TestRequiredDevices(t *testing.T) {
	cfg := nn.BERTStyle()
	n := requiredDevices(cfg, 40, 0.9)
	if n < 2 || n > 8 {
		t.Fatalf("required devices %d out of plausible band", n)
	}
}

func TestEstimateTotals(t *testing.T) {
	e := &Estimate{WeightBytes: []float64{1e9, 2e9}, ActBytes: []float64{1e9, 0}}
	tot := e.Total()
	if tot[0] != 2e9 || tot[1] != 2e9 {
		t.Fatalf("totals %v", tot)
	}
	if e.MaxGB() != 2 {
		t.Fatalf("max %g", e.MaxGB())
	}
	if e.VarianceGB() != 0 {
		t.Fatalf("variance %g", e.VarianceGB())
	}
}
