package sched_test

import (
	"testing"

	"repro/internal/costmodel"
	. "repro/internal/sched"
	"repro/internal/sim"
)

// TestFusedSplitEquivalence pins the fused/split correspondence the whole
// zero-bubble extension rests on: a zbh1 schedule generated in eager-W mode
// (each weight-grad action runs immediately after its input-grad half, the
// gradient send re-attached to the W) under 1F1B's P−s inflight cap must
// reproduce dapple's simulation exactly — makespan, per-device busy and
// end times, every zone total and every activation peak — when the split
// halves sum to the fused backward (the simulator's even split guarantees
// Tb/2 + (Tb − Tb/2) = Tb). Any drift in the split compute pricing, the comm
// placement around BI/BW or the interpreter's handling of the new kinds
// breaks this equality.
func TestFusedSplitEquivalence(t *testing.T) {
	for _, sh := range []struct{ p, b int }{{4, 4}, {4, 8}, {8, 8}, {8, 16}} {
		eager := func(gp *GenParams) {
			gp.EagerW = true
			gp.Cap = make([]int32, sh.p) // per (stage, chunk): S = P, one chunk per device
			for s := range gp.Cap {
				gp.Cap[s] = int32(sh.p - s)
			}
		}
		zs, err := GenerateWith(NewGenerator(), "zbh1", sh.p, sh.b, eager)
		if err == nil {
			err = Validate(zs)
		}
		if err != nil {
			t.Fatalf("zbh1 P=%d B=%d: %v", sh.p, sh.b, err)
		}
		ds, err := DAPPLE(sh.p, sh.b)
		if err != nil {
			t.Fatalf("dapple P=%d B=%d: %v", sh.p, sh.b, err)
		}
		cost := costmodel.Uniform{Tf: 1, Tb: 2, Tc: 0.05}
		for _, o := range []struct {
			name string
			sim.Options
		}{
			{"default", sim.Options{Prefetch: true, BatchComm: true}},
			{"noprefetch", sim.Options{Prefetch: false, BatchComm: true}},
			{"flush", sim.Options{Prefetch: true, BatchComm: true, FlushTime: 0.5}},
		} {
			opts := o.name
			zr, err := sim.Run(zs, cost, o.Options)
			if err != nil {
				t.Fatalf("zbh1 P=%d B=%d %s: %v", sh.p, sh.b, opts, err)
			}
			dr, err := sim.Run(ds, cost, o.Options)
			if err != nil {
				t.Fatalf("dapple P=%d B=%d %s: %v", sh.p, sh.b, opts, err)
			}
			if zr.Makespan != dr.Makespan {
				t.Errorf("P=%d B=%d %s: makespan %.9g, dapple %.9g",
					sh.p, sh.b, opts, zr.Makespan, dr.Makespan)
			}
			for z := 0; z < sim.NumZones; z++ {
				if zr.Zones[z] != dr.Zones[z] {
					t.Errorf("P=%d B=%d %s: zone %v total %.9g, dapple %.9g",
						sh.p, sh.b, opts, sim.Zone(z), zr.Zones[z], dr.Zones[z])
				}
			}
			for d := 0; d < sh.p; d++ {
				if zr.Busy[d] != dr.Busy[d] {
					t.Errorf("P=%d B=%d %s: device %d busy %.9g, dapple %.9g",
						sh.p, sh.b, opts, d, zr.Busy[d], dr.Busy[d])
				}
				if zr.End[d] != dr.End[d] {
					t.Errorf("P=%d B=%d %s: device %d end %.9g, dapple %.9g",
						sh.p, sh.b, opts, d, zr.End[d], dr.End[d])
				}
				if zr.PeakActs[d] != dr.PeakActs[d] {
					t.Errorf("P=%d B=%d %s: device %d peak %d, dapple %d",
						sh.p, sh.b, opts, d, zr.PeakActs[d], dr.PeakActs[d])
				}
			}
		}
	}
}
