package runtime

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/tensor"
)

// allSchemes is every scheme of the golden parity table (see
// internal/sim/runner_test.go). With P=2 the widest, hanayo-w4, cuts
// tinyCfg's 16 units into 16 stages.
var allSchemes = []string{
	"gpipe", "dapple", "chimera", "chimera-wave",
	"hanayo-w1", "hanayo-w2", "hanayo-w4", "interleaved-v2", "gems", "zbh1",
}

// paramChecksum is FNV-1a over the little-endian bits of every parameter.
func paramChecksum(ws []*tensor.Tensor) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, w := range ws {
		for _, v := range w.Data {
			u := math.Float32bits(v)
			b[0], b[1], b[2], b[3] = byte(u), byte(u>>8), byte(u>>16), byte(u>>24)
			h.Write(b[:])
		}
	}
	return h.Sum64()
}

// parent holds, for the three steps of trainThree, paramChecksum of the
// final Snapshot and the bits of the last step's loss, taken on the commit
// before the workspaces existed (every tensor from tensor.New, per-step
// workers and maps). Schemes that order their gradient accumulation alike
// share a value: the two-copy placements sum the copies, zbh1 defers its
// weight halves; checkpointing changes none. Keyed by accumulation class,
// then by DP−1.
var parent = map[string][2]struct{ params, loss uint64 }{
	"one-copy": {{0xccc49e36c4cb58f2, 0x4005b10c4ae9cea7}, {0x44013eb79be0f90d, 0x40090c7828fa3e24}},
	"two-copy": {{0x51b41e6e5f25086a, 0x4005b10be9a652e7}, {0x0d0d6fadf4dce353, 0x40090c78578c9a0c}},
	"split":    {{0x009a09199e3ce1b5, 0x4005b10c1bc0f421}, {0xf6f0e3d2128ce5de, 0x40090c782dd03e4a}},
}

func accumulationClass(scheme string) string {
	switch scheme {
	case "chimera", "gems":
		return "two-copy"
	case "zbh1":
		return "split"
	}
	return "one-copy"
}

// detach puts the engine on the heap path: every layer allocates with
// tensor.New and the workers release into nothing.
func detach(e *Engine) {
	for _, rep := range e.replicas {
		for _, stages := range rep.stageInst {
			for _, st := range stages {
				st.SetWorkspace(nil)
			}
		}
		for _, w := range rep.workers {
			w.ws = nil
		}
	}
}

// trainThree runs three default-SGD steps on fixed seeds and returns the
// final parameters and the last loss.
func trainThree(t *testing.T, scheme string, dp int, checkpoint, heap bool) ([]*tensor.Tensor, float64) {
	t.Helper()
	cfg := tinyCfg()
	eng, err := New(Config{Schedule: mustSched(t, scheme, 2, 4), Model: cfg, DP: dp, Seed: 42, Checkpoint: checkpoint})
	if err != nil {
		t.Fatal(err)
	}
	if heap {
		detach(eng)
	}
	gen := data.NewGenerator(7, cfg.Vocab, cfg.SeqLen)
	var loss float64
	for i := 0; i < 3; i++ {
		res, err := eng.Step(gen.Next(8 * dp))
		if err != nil {
			t.Fatal(err)
		}
		loss = res.Loss
	}
	return eng.Snapshot(), loss
}

// TestWorkspaceParityAllSchemes: for every scheme, the workspace-backed
// engine, the same layers with no workspace attached and the parent
// commit's engine land on the same parameters and loss, float for float.
func TestWorkspaceParityAllSchemes(t *testing.T) {
	for _, scheme := range allSchemes {
		for _, dp := range []int{1, 2} {
			for _, checkpoint := range []bool{false, true} {
				pooled, loss := trainThree(t, scheme, dp, checkpoint, false)
				heap, heapLoss := trainThree(t, scheme, dp, checkpoint, true)
				if !snapshotsEqual(pooled, heap) || loss != heapLoss {
					t.Errorf("%s dp=%d checkpoint=%v: workspace and heap paths diverged", scheme, dp, checkpoint)
				}
				want := parent[accumulationClass(scheme)][dp-1]
				if got := paramChecksum(pooled); got != want.params {
					t.Errorf("%s dp=%d checkpoint=%v: parameter checksum %#x, parent commit %#x", scheme, dp, checkpoint, got, want.params)
				}
				if got := math.Float64bits(loss); got != want.loss {
					t.Errorf("%s dp=%d checkpoint=%v: loss bits %#x, parent commit %#x", scheme, dp, checkpoint, got, want.loss)
				}
			}
		}
	}
}

// pinCases are the engine shapes whose steady-state allocations are pinned:
// waves, plain 1F1B, two weight copies, the split backward, checkpointing.
// allocs is what one warm Step of the case allocates, measured: the layers'
// context structs (20 per transformer block and micro-batch, twice that
// and one more under checkpointing, which builds them again in backward),
// the Result with its three slices, and one closure per device goroutine. No
// tensor is among them: the parent commit spent 47487, 23295, 23884, 26969
// and 32905 objects on these same steps.
var pinCases = []struct {
	name       string
	scheme     string
	dp         int
	checkpoint bool
	allocs     float64
}{
	{"hanayo-w2", "hanayo-w2", 2, false, 2497},
	{"dapple", "dapple", 1, false, 1178},
	{"chimera", "chimera", 1, false, 1178},
	{"zbh1", "zbh1", 1, false, 1178},
	{"checkpoint", "hanayo-w1", 1, true, 2414},
}

// TestEngineStepAllocsPinned: a warm Step reuses every buffer it touches,
// so its allocation count is the fixed, exactly repeating one of pinCases.
// The headroom of 4 is for the Go runtime's own parking structures when a
// receive blocks.
func TestEngineStepAllocsPinned(t *testing.T) {
	for _, tc := range pinCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyCfg()
			eng, err := New(Config{Schedule: mustSched(t, tc.scheme, 2, 4), Model: cfg, DP: tc.dp, Seed: 1, Checkpoint: tc.checkpoint})
			if err != nil {
				t.Fatal(err)
			}
			batch := data.NewGenerator(3, cfg.Vocab, cfg.SeqLen).Next(8 * tc.dp)
			step := func() {
				if _, err := eng.Step(batch); err != nil {
					t.Fatal(err)
				}
			}
			step()
			step()
			if got := testing.AllocsPerRun(10, step); got > tc.allocs+4 {
				t.Fatalf("%s: warm Step allocates %.0f objects, pinned at %.0f", tc.name, got, tc.allocs)
			}
		})
	}
}

// TestHealthyStepLeavesNothingToSweep: the ownership rules are complete —
// after a healthy step every workspace tensor is back in a free list
// before the flush sweeps, for every scheme and with checkpointing.
func TestHealthyStepLeavesNothingToSweep(t *testing.T) {
	for _, scheme := range allSchemes {
		for _, checkpoint := range []bool{false, true} {
			cfg := tinyCfg()
			eng, err := New(Config{Schedule: mustSched(t, scheme, 2, 4), Model: cfg, DP: 1, Seed: 1, Checkpoint: checkpoint})
			if err != nil {
				t.Fatal(err)
			}
			runWorkers(t, eng, data.NewGenerator(3, cfg.Vocab, cfg.SeqLen).Next(8))
			checkNothingToSweep(t, eng, fmt.Sprintf("%s checkpoint=%v", scheme, checkpoint))
		}
	}
}

// runWorkers runs one step's workers as Step does, stopping short of the
// all-reduce and the flush's sweep.
func runWorkers(t *testing.T, eng *Engine, batch *data.Batch) {
	t.Helper()
	b := eng.sch.B
	eng.micros = data.SplitMicroInto(eng.micros, batch, b*eng.cfg.DP)
	for r, rep := range eng.replicas {
		rep.micros = eng.micros[r*b : (r+1)*b]
	}
	if _, err := eng.driver.Run(eng.sch, eng.backends, exec.DefaultOptions()); err != nil {
		t.Fatal(err)
	}
}

// checkNothingToSweep fails the test if any workspace of the engine still
// has a tensor handed out.
func checkNothingToSweep(t *testing.T, eng *Engine, name string) {
	t.Helper()
	for r, rep := range eng.replicas {
		for _, w := range rep.workers {
			if n := w.ws.Sweep(); n != 0 {
				t.Errorf("%s: replica %d device %d left %d tensors for the sweep", name, r, w.device, n)
			}
		}
	}
}

// TestEnginePoison: nothing relies on recycled memory being zero. After two
// warm steps every pooled buffer is overwritten with NaN; the next steps
// must still produce the losses and parameters of an engine whose pools
// were left alone.
func TestEnginePoison(t *testing.T) {
	for _, tc := range pinCases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tinyCfg()
			run := func(poison bool) ([]float64, []*tensor.Tensor) {
				eng, err := New(Config{Schedule: mustSched(t, tc.scheme, 2, 4), Model: cfg, DP: tc.dp, Seed: 5, Checkpoint: tc.checkpoint})
				if err != nil {
					t.Fatal(err)
				}
				gen := data.NewGenerator(9, cfg.Vocab, cfg.SeqLen)
				var losses []float64
				for i := 0; i < 4; i++ {
					if poison && i >= 2 {
						for _, rep := range eng.replicas {
							for _, w := range rep.workers {
								w.ws.Fill(float32(math.NaN()))
							}
						}
					}
					res, err := eng.Step(gen.Next(8 * tc.dp))
					if err != nil {
						t.Fatal(err)
					}
					losses = append(losses, res.Loss)
				}
				return losses, eng.Snapshot()
			}
			wantLoss, wantParams := run(false)
			gotLoss, gotParams := run(true)
			for i := range wantLoss {
				if gotLoss[i] != wantLoss[i] {
					t.Fatalf("step %d: loss %v with poisoned pools, %v without", i, gotLoss[i], wantLoss[i])
				}
			}
			if !snapshotsEqual(gotParams, wantParams) {
				t.Fatal("poisoned pools changed the parameters")
			}
		})
	}
}

// TestFailureCancelsEveryReplica: with DP=2 a device failure in replica 0
// stands replica 1 down within one op instead of letting it run its whole
// schedule; no goroutine outlives the failed Step, and after AbortReset
// the retried step is bit-exact against an engine that never failed.
func TestFailureCancelsEveryReplica(t *testing.T) {
	cfg := tinyCfg()
	batch := data.NewGenerator(7, cfg.Vocab, cfg.SeqLen).Next(8)
	build := func() *Engine {
		eng, err := New(Config{Schedule: mustSched(t, "gpipe", 2, 4), Model: cfg, DP: 2, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}
	eng := build()
	if _, err := eng.Step(batch); err != nil { // warm: the pools are filled
		t.Fatal(err)
	}
	clean := build()
	if _, err := clean.Step(batch); err != nil {
		t.Fatal(err)
	}

	// The failure hits the very first op of device 0 in whichever replica
	// gets there first. GPipe runs stage 0's backwards last, so a replica
	// left to finish its schedule would have gradients on stage 0; one that
	// stood down when the failure landed has none.
	before := goruntime.NumGoroutine()
	eng.InjectFailure(0, 0)
	_, err := eng.Step(batch)
	var de *DeviceError
	if !errors.As(err, &de) || de.Dev != 0 || de.Micro != 0 {
		t.Fatalf("step error %v, want the injected DeviceError(0, 0)", err)
	}
	for r, rep := range eng.replicas {
		for _, p := range rep.stageParams[0][0] {
			if tensor.Dot(p.G, p.G) != 0 {
				t.Fatalf("replica %d ran on to stage 0's backward (%s has gradient) after the failure", r, p.Name)
			}
		}
	}
	for wait := time.Millisecond; goruntime.NumGoroutine() > before; wait *= 2 {
		if wait > time.Second {
			t.Fatalf("%d goroutines after the failed step, %d before", goruntime.NumGoroutine(), before)
		}
		time.Sleep(wait)
	}

	eng.AbortReset()
	checkNothingToSweep(t, eng, "after AbortReset")
	got, err := eng.Step(batch)
	if err != nil {
		t.Fatalf("retry after AbortReset: %v", err)
	}
	want, err := clean.Step(batch)
	if err != nil {
		t.Fatal(err)
	}
	if got.Loss != want.Loss {
		t.Fatalf("retried loss %v differs from clean engine's %v", got.Loss, want.Loss)
	}
	if !snapshotsEqual(eng.Snapshot(), clean.Snapshot()) {
		t.Fatal("retried step diverged from an engine that never failed")
	}
}
