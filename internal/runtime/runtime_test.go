package runtime

import (
	"errors"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/data"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// TestMain fails the package if any test leaves a goroutine behind: after
// the tests, the goroutine count must return to its baseline within 2 s,
// or every stack is printed and the run fails.
func TestMain(m *testing.M) {
	baseline := goruntime.NumGoroutine()
	code := m.Run()
	deadline := time.Now().Add(2 * time.Second)
	for goruntime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := goruntime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		buf = buf[:goruntime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "leaked goroutines: %d at start, %d after the tests\n%s", baseline, n, buf)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

// tinyCfg has 14 blocks (16 units) so it can be cut into up to 16 stages —
// enough for Hanayo W=2 on 4 devices.
func tinyCfg() nn.Config { return nn.Tiny(14, 8, 2, 16, 4, true) }

// nopOpt keeps gradients intact so tests can inspect them after Step.
type nopOpt struct{}

func (nopOpt) Step([]*nn.Param) {}

// train runs iters steps over batches from gen, returning per-iteration
// losses. rows is the total batch rows per iteration (must split into
// DP·B micro-batches).
func (e *Engine) train(gen *data.Generator, rows, iters int) ([]float64, error) {
	losses := make([]float64, 0, iters)
	for i := 0; i < iters; i++ {
		res, err := e.Step(gen.Next(rows))
		if err != nil {
			return losses, err
		}
		losses = append(losses, res.Loss)
	}
	return losses, nil
}

// serialGrads runs the reference: the full model on one device, every
// micro-batch in sequence, gradients scaled exactly like the engine
// (1/(B·DP) on the loss gradient).
func serialGrads(t *testing.T, cfg nn.Config, seed uint64, micros []*data.Batch) ([]*nn.Param, float64) {
	t.Helper()
	m := nn.Build(tensor.NewRNG(seed), cfg)
	whole := nn.NewSequential(m.Units...)
	scale := 1 / float32(len(micros))
	var lossSum float64
	for _, mb := range micros {
		y, ctx := whole.Forward(mb.Inputs)
		loss, d := nn.SoftmaxCrossEntropy(y, mb.Targets)
		lossSum += loss
		tensor.ScaleInPlace(d, scale)
		whole.Backward(ctx, d)
	}
	return whole.Params(), lossSum / float64(len(micros))
}

// checkSchemeMatchesSerial is the core equivalence test: an engine running
// the given schedule must produce the same loss and parameter gradients as
// the serial reference, for any scheme.
func checkSchemeMatchesSerial(t *testing.T, s *sched.Schedule, dp int) {
	t.Helper()
	cfg := tinyCfg()
	const seed = 42
	eng, err := New(Config{
		Schedule:     s,
		Model:        cfg,
		DP:           dp,
		Seed:         seed,
		NewOptimizer: func() nn.Optimizer { return nopOpt{} },
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := data.NewGenerator(7, cfg.Vocab, cfg.SeqLen)
	rows := s.B * dp // one row per micro-batch
	batch := gen.Next(rows)

	res, err := eng.Step(batch)
	if err != nil {
		t.Fatal(err)
	}

	micros := data.SplitMicro(batch, s.B*dp)
	refParams, refLoss := serialGrads(t, cfg, seed, micros)

	if math.Abs(res.Loss-refLoss) > 1e-5 {
		t.Fatalf("%s: loss %g vs serial %g", s.Scheme, res.Loss, refLoss)
	}
	got := eng.Params()
	// For Chimera the engine param list is copy0 then copy1; both must
	// match the serial reference after the copy all-reduce.
	for c := 0; c < len(got)/len(refParams); c++ {
		for i, ref := range refParams {
			g := got[c*len(refParams)+i]
			if d := tensor.MaxAbsDiff(g.G, ref.G); d > 2e-4 {
				t.Fatalf("%s: copy %d param %d (%s) grad diff %g", s.Scheme, c, i, ref.Name, d)
			}
		}
	}
}

func TestGPipeMatchesSerial(t *testing.T) {
	s, err := sched.GPipe(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkSchemeMatchesSerial(t, s, 1)
}

func TestDAPPLEMatchesSerial(t *testing.T) {
	s, err := sched.DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkSchemeMatchesSerial(t, s, 1)
}

func TestChimeraMatchesSerial(t *testing.T) {
	s, err := sched.Chimera(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkSchemeMatchesSerial(t, s, 1)
}

func TestHanayoOneWaveMatchesSerial(t *testing.T) {
	s, err := sched.Hanayo(4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkSchemeMatchesSerial(t, s, 1)
}

func TestHanayoTwoWavesMatchesSerial(t *testing.T) {
	s, err := sched.Hanayo(4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkSchemeMatchesSerial(t, s, 1)
}

func TestHanayoTwoDevicesMatchesSerial(t *testing.T) {
	s, err := sched.Hanayo(2, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkSchemeMatchesSerial(t, s, 1)
}

func TestInterleavedMatchesSerial(t *testing.T) {
	s, err := sched.Interleaved(4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	checkSchemeMatchesSerial(t, s, 1)
}

func TestDataParallelMatchesSerial(t *testing.T) {
	s, err := sched.Hanayo(4, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkSchemeMatchesSerial(t, s, 2)
}

func TestChimeraWithDataParallelMatchesSerial(t *testing.T) {
	s, err := sched.Chimera(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	checkSchemeMatchesSerial(t, s, 2)
}

func TestTrainingReducesLoss(t *testing.T) {
	cfg := nn.Tiny(6, 16, 2, 12, 6, true)
	s, err := sched.Hanayo(4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{
		Schedule:     s,
		Model:        cfg,
		DP:           1,
		Seed:         1,
		NewOptimizer: func() nn.Optimizer { return nn.NewAdam(0.01) },
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := data.NewGenerator(3, cfg.Vocab, cfg.SeqLen)
	losses, err := eng.train(gen, 4, 25)
	if err != nil {
		t.Fatal(err)
	}
	first := (losses[0] + losses[1] + losses[2]) / 3
	n := len(losses)
	last := (losses[n-1] + losses[n-2] + losses[n-3]) / 3
	if last >= first {
		t.Fatalf("pipeline training did not learn: %g -> %g", first, last)
	}
}

func TestReplicasStaySynced(t *testing.T) {
	cfg := tinyCfg()
	s, err := sched.DAPPLE(4, 2)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{
		Schedule:     s,
		Model:        cfg,
		DP:           2,
		Seed:         9,
		NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.05, 0.9) },
	})
	if err != nil {
		t.Fatal(err)
	}
	gen := data.NewGenerator(5, cfg.Vocab, cfg.SeqLen)
	for i := 0; i < 3; i++ {
		if _, err := eng.Step(gen.Next(4)); err != nil {
			t.Fatal(err)
		}
	}
	p0 := eng.replicas[0].params
	p1 := eng.replicas[1].params
	for i := range p0 {
		if d := tensor.MaxAbsDiff(p0[i].W, p1[i].W); d != 0 {
			t.Fatalf("replicas diverged at param %d (%s): %g", i, p0[i].Name, d)
		}
	}
}

func TestPipelineDeterministic(t *testing.T) {
	// Two engines with the same seeds must produce bit-identical losses
	// despite goroutine nondeterminism: the schedule fixes the dataflow.
	run := func() []float64 {
		cfg := tinyCfg()
		s, err := sched.Hanayo(4, 2, 4)
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(Config{Schedule: s, Model: cfg, DP: 1, Seed: 3,
			NewOptimizer: func() nn.Optimizer { return nn.NewSGD(0.05, 0) }})
		if err != nil {
			t.Fatal(err)
		}
		gen := data.NewGenerator(11, cfg.Vocab, cfg.SeqLen)
		losses, err := eng.train(gen, 4, 5)
		if err != nil {
			t.Fatal(err)
		}
		return losses
	}
	a, b := run(), run()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("iteration %d: %g vs %g", i, a[i], b[i])
		}
	}
}

func TestNewRejectsBadConfigs(t *testing.T) {
	s, err := sched.Hanayo(4, 2, 4) // S = 16
	if err != nil {
		t.Fatal(err)
	}
	// Too few layers for 16 stages.
	if _, err := New(Config{Schedule: s, Model: nn.Tiny(4, 8, 2, 16, 4, true), DP: 1}); err == nil {
		t.Fatal("expected error: model too shallow for stage count")
	}
	if _, err := New(Config{Schedule: s, Model: tinyCfg(), DP: 0}); err == nil {
		t.Fatal("expected error: DP must be ≥ 1")
	}
	if _, err := New(Config{Schedule: nil, Model: tinyCfg(), DP: 1}); err == nil {
		t.Fatal("expected error: nil schedule")
	}
}

func TestCommStatsPopulated(t *testing.T) {
	cfg := tinyCfg()
	s, err := sched.Hanayo(4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(Config{Schedule: s, Model: cfg, DP: 1, Seed: 2,
		NewOptimizer: func() nn.Optimizer { return nopOpt{} }})
	if err != nil {
		t.Fatal(err)
	}
	gen := data.NewGenerator(1, cfg.Vocab, cfg.SeqLen)
	res, err := eng.Step(gen.Next(4))
	if err != nil {
		t.Fatal(err)
	}
	st := res.CommStats[0]
	wantMsgs := int64(s.CountKind(sched.OpSendAct) + s.CountKind(sched.OpSendGrad))
	if st.Messages != wantMsgs {
		t.Fatalf("router moved %d messages, schedule has %d sends", st.Messages, wantMsgs)
	}
	if st.Bytes <= 0 {
		t.Fatal("no bytes counted")
	}
}

// TestNewRefusesBatchedOnlySchedule: New proves a schedule with the
// unbatched walk, which accepts less than a batched simulation does. With
// device 0's SA m2 s1 and RA m1 s3 swapped, a chimera P4 B4 schedule still
// completes batched — the run's send is issued before its receive waits —
// but in list order device 0 waits for a receive whose sender waits for
// device 0's send, so New refuses it with an error wrapping
// sched.ErrDeadlock.
func TestNewRefusesBatchedOnlySchedule(t *testing.T) {
	s, err := sched.Chimera(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	list := s.Lists[0]
	if got := fmt.Sprint(list[3], " ", list[4]); got != "SA m2 s1 p1 RA m1 s3 p1" {
		t.Fatalf("device 0's ops 3 and 4 are %s", got)
	}
	list[3], list[4] = list[4], list[3]
	if _, err := sim.Run(s, costmodel.Uniform{Tf: 1, Tb: 2, Tc: 0.1}, sim.DefaultOptions()); err != nil {
		t.Fatalf("batched simulation: %v", err)
	}
	_, err = New(Config{Schedule: s, Model: tinyCfg(), DP: 1})
	if !errors.Is(err, sched.ErrDeadlock) {
		t.Fatalf("New: got %v, want an error wrapping sched.ErrDeadlock", err)
	}
}
