package core

import (
	"reflect"
	"testing"

	"repro/internal/cachewire"
	"repro/internal/cluster"
	"repro/internal/nn"
)

// TestZBH1SweepsAndCaches is the zero-bubble scheme's service acceptance:
// adding "zbh1" to the sweep space ranks it alongside the paper's schemes
// with real measurements at every grid cell, every published cache entry
// carries the SplitBW flag (and fused schemes' entries do not), and a cold
// Tuner serving the same space entirely from the warmed remote tier
// reproduces the ranking bit-for-bit — the split-backward verdicts are
// cacheable, keyed and wire-safe like any fused evaluation.
func TestZBH1SweepsAndCaches(t *testing.T) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	space := fig10Space(2, false)
	space.Schemes = append(DefaultSchemes(), "zbh1")

	remote := cachewire.NewLoopback(0)
	warm := NewTuner(TunerOptions{Runners: 2, Remote: remote})
	cands := warm.AutoTune(cl, model, space)

	seen := map[int]Candidate{}
	for _, c := range cands {
		if c.Plan.Scheme == "zbh1" {
			seen[c.Plan.P] = c
		}
	}
	for _, pd := range space.PD {
		c, ok := seen[pd[0]]
		if !ok {
			t.Fatalf("no zbh1 candidate at P=%d — the scheme never entered the ranking", pd[0])
		}
		if c.Err != nil {
			t.Fatalf("zbh1 P=%d: %v", pd[0], c.Err)
		}
		if !c.OOM && c.Throughput <= 0 {
			t.Fatalf("zbh1 P=%d: feasible cell without a throughput: %+v", pd[0], c)
		}
	}

	fp := cl.Fingerprint()
	zplan := Plan{Scheme: "zbh1", Cluster: cl, Model: model,
		P: space.PD[0][0], D: space.PD[0][1], B: space.B, MicroRows: space.MicroRows}
	dplan := zplan
	dplan.Scheme = "dapple"
	we, ok := make([]cachewire.Entry, 2), make([]bool, 2)
	keys := []uint64{keyFor(zplan, fp).hash(), keyFor(dplan, fp).hash()}
	if err := remote.MultiGet(keys, we, ok); err != nil || !ok[0] || !ok[1] {
		t.Fatalf("zbh1 or dapple evaluation never reached the remote tier (ok=%v err=%v)", ok, err)
	}
	if !we[0].SplitBW {
		t.Fatal("zbh1 entry published without the SplitBW flag")
	}
	if we[1].SplitBW {
		t.Fatal("fused dapple entry published with SplitBW set")
	}

	cold := NewTuner(TunerOptions{Runners: 2, Remote: remote})
	got := cold.AutoTune(cl, model, space)
	if !reflect.DeepEqual(got, cands) {
		t.Fatalf("cold sweep over the warmed tier diverges from the measuring sweep\ngot:  %+v\nwant: %+v",
			got, cands)
	}
}
