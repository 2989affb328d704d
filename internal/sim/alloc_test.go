package sim

import (
	"testing"
	"unsafe"

	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/sched"
)

// TestIRLayoutPinned pins the packed layout of the three arrays a cold
// sweep writes and reads most: the action lists compile emits, the Record
// timelines a simulation appends and the transfer table it resolves sends
// in. A field widened back to int or a flag moved between the floats
// grows one of them and fails here.
func TestIRLayoutPinned(t *testing.T) {
	for _, c := range []struct {
		name      string
		got, want uintptr
	}{
		{"sched.Action", unsafe.Sizeof(sched.Action{}), 20},
		{"exec.Record", unsafe.Sizeof(exec.Record{}), 40},
		{"sim.transfer", unsafe.Sizeof(transfer{}), 16},
	} {
		if c.got != c.want {
			t.Errorf("%s is %d bytes, want %d", c.name, c.got, c.want)
		}
	}
}

// TestRunAllocsPinned is the allocation-regression guard for the dense
// simulator backend: one Run may allocate only its fixed setup block (the
// Result, the flat transfer/link tables, the per-device slices and the
// preallocated Record timelines) — nothing proportional to the executed op
// count. The map-based backend this replaced allocated per transfer, per
// link entry, per zone-map write and per Records growth: ~8000 allocations
// on this schedule's bigger sibling. The budget below is deliberately a
// loose 2× of the measured setup cost (~26) so unrelated runtime noise
// does not flake the build, while a per-op regression (thousands) still
// fails loudly.
func TestRunAllocsPinned(t *testing.T) {
	s, err := sched.Hanayo(8, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(s.S) / float64(s.P)
	cost := costmodel.Uniform{Tf: 1 / per, Tb: 2 / per, Tc: 0.05}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Run(s, cost, DefaultOptions()); err != nil {
			t.Fatal(err)
		}
	})
	ops := float64(s.NumActions())
	if perOp := allocs / ops; perOp > 0.05 {
		t.Fatalf("hot path allocates: %.1f allocs/run over %d ops = %.3f allocs/op (want ≈0)",
			allocs, int(ops), perOp)
	}
	if allocs > 60 {
		t.Fatalf("setup allocations grew to %.0f per run (budget 60)", allocs)
	}
}
