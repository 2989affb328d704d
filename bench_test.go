package hanayo

// The benchmark harness: one benchmark per paper table/figure (run with
// `go test -bench=. -benchmem`), each reporting the experiment's headline
// metric via b.ReportMetric, plus ablation benches for the design choices
// DESIGN.md calls out (prefetching, batched cross-communication, priority
// rules). `go run ./cmd/hanayo-bench` prints the full tables.

import (
	"fmt"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/data"
	"repro/internal/experiments"
	"repro/internal/nn"
	"repro/internal/perfmodel"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sim"
)

// runExperiment executes a registered experiment, discarding output.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		if err := experiments.Run(name, io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig01TheoreticalBubbleRatios(b *testing.B) {
	runExperiment(b, "fig01")
	b.ReportMetric(100*perfmodel.HanayoBubble(perfmodel.FigureOneDefaults(8, 2)), "hanayo-w2-bubble-%")
	b.ReportMetric(100*perfmodel.GPipeBubble(perfmodel.FigureOneDefaults(8, 1)), "gpipe-bubble-%")
}

func BenchmarkFig02ComparisonTable(b *testing.B)   { runExperiment(b, "fig02") }
func BenchmarkFig03ScheduleTimelines(b *testing.B) { runExperiment(b, "fig03") }
func BenchmarkFig04SyncVsAsync(b *testing.B)       { runExperiment(b, "fig04") }
func BenchmarkFig05ChimeraTransform(b *testing.B)  { runExperiment(b, "fig05") }
func BenchmarkFig06WaveScaling(b *testing.B)       { runExperiment(b, "fig06") }
func BenchmarkFig07BubbleZones(b *testing.B)       { runExperiment(b, "fig07") }
func BenchmarkFig08MemoryDistribution(b *testing.B) {
	runExperiment(b, "fig08")
}

func BenchmarkFig09ClusterThroughput(b *testing.B) {
	runExperiment(b, "fig09")
	// Headline: Hanayo's best-wave gain over Chimera-wave on FC at P=8.
	cl := cluster.FullNVLink(8)
	base := core.Plan{Scheme: "chimera-wave", Cluster: cl, Model: nn.BERTStyle(),
		P: 8, D: 1, B: 8, MicroRows: 2}
	cw, err := base.Throughput()
	if err != nil {
		b.Fatal(err)
	}
	h := base
	h.Scheme = "hanayo-w4"
	hw, err := h.Throughput()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric((hw/cw-1)*100, "hanayo-vs-chimera-%")
}

func BenchmarkFig10ConfigSearch(b *testing.B)  { runExperiment(b, "fig10") }
func BenchmarkFig11WeakScaling(b *testing.B)   { runExperiment(b, "fig11") }
func BenchmarkFig12StrongScaling(b *testing.B) { runExperiment(b, "fig12") }

// --------------------------------------------------------------- engines --

// BenchmarkScheduleGeneration measures the unified framework's cost to
// produce and validate a large wave schedule (32 devices, 4 waves). The
// workload is unchanged from earlier PRs — one validated schedule per op —
// but validation is now fused into generation, so no separate
// sched.Validate pass runs.
func BenchmarkScheduleGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := sched.Hanayo(32, 4, 32); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGeneratorReuse is the steady-state allocation headline of the
// schedule compiler: the same validated schedule compiled repeatedly
// through one sched.Generator must report exactly 0 allocs/op (the
// one-shot constructors pay a fresh compiler's arena growth every call;
// the Generator pays it once, at warmup, outside the timed loop). CI pins
// this number alongside BenchmarkRunnerReuse.
func BenchmarkGeneratorReuse(b *testing.B) {
	g := sched.NewGenerator()
	s, err := g.Generate("hanayo-w4", 32, 32) // warm the arenas
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Generate("hanayo-w4", 32, 32); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.NumActions()), "ops/schedule")
}

// BenchmarkScheduleGenerationZBH1 measures the zero-bubble split scheme's
// compilation at the same 32-device scale — three compute segments (F,
// BI, BW) plus the bubble-filling weight-grad placement pass — through a
// reused Generator, so CI's alloc smoke pins its steady state at exactly
// 0 allocs/op alongside BenchmarkGeneratorReuse.
func BenchmarkScheduleGenerationZBH1(b *testing.B) {
	g := sched.NewGenerator()
	s, err := g.Generate("zbh1", 32, 32) // warm the arenas
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.Generate("zbh1", 32, 32); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(s.NumActions()), "ops/schedule")
}

// BenchmarkSimulator measures the discrete-event executor on a 32-device
// wave schedule.
func BenchmarkSimulator(b *testing.B) {
	s, err := sched.Hanayo(32, 2, 32)
	if err != nil {
		b.Fatal(err)
	}
	per := float64(s.S) / float64(s.P)
	cost := costmodel.Uniform{Tf: 1 / per, Tb: 2 / per, Tc: 0.05}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(s, cost, sim.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimRun is the allocation benchmark of the dense simulator
// backend (run with -benchmem): one discrete-event execution of an
// 8-device 2-wave schedule against a calibrated cluster cost model. The
// allocs/op figure is the regression headline — the map-based backend
// this replaced allocated per transfer, per link and per Records growth;
// the dense backend performs only its fixed setup allocations.
func BenchmarkSimRun(b *testing.B) {
	s, err := sched.Hanayo(8, 2, 16)
	if err != nil {
		b.Fatal(err)
	}
	cost, err := costmodel.New(costmodel.Workload{Model: nn.BERTStyle(), MicroRows: 2},
		cluster.TACC(8), s)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sim.Run(s, cost, sim.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.NumActions()), "ops/run")
}

// BenchmarkRunnerReuse is the steady-state allocation headline of the
// reusable evaluation pipeline: the same schedule driven repeatedly
// through one sim.Runner must report ~0 allocs/op (the one-shot
// BenchmarkSimRun pays its fixed setup block every run; the Runner pays it
// once, at warmup, outside the timed loop). CI pins this number.
func BenchmarkRunnerReuse(b *testing.B) {
	s, err := sched.Hanayo(8, 2, 16)
	if err != nil {
		b.Fatal(err)
	}
	cost, err := costmodel.New(costmodel.Workload{Model: nn.BERTStyle(), MicroRows: 2},
		cluster.TACC(8), s)
	if err != nil {
		b.Fatal(err)
	}
	var costIface sim.Cost = cost
	r := sim.NewRunner()
	if _, err := r.Run(s, costIface, sim.DefaultOptions()); err != nil { // warm the arenas
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(s, costIface, sim.DefaultOptions()); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(s.NumActions()), "ops/run")
}

// BenchmarkMemReplayerReuse measures the reused memory replay: one
// per-device walk of the action lists producing Fig 8's live-byte curves.
func BenchmarkMemReplayerReuse(b *testing.B) {
	s, err := sched.Hanayo(8, 2, 16)
	if err != nil {
		b.Fatal(err)
	}
	model := nn.BERTStyle()
	r := NewMemReplayer()
	if _, err := r.Run(s, model, 2); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := r.Run(s, model, 2); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluate measures one single-pass candidate evaluation — the
// unit of work the Fig 10 search performs per (scheme, P, B) key: one
// simulation yielding memory estimate, feasibility and throughput
// together (the pre-Evaluate design simulated twice per candidate).
func BenchmarkEvaluate(b *testing.B) {
	plan := core.Plan{Scheme: "hanayo-w2", Cluster: cluster.TACC(8),
		Model: nn.BERTStyle(), P: 8, D: 1, B: 16, MicroRows: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e, err := plan.Evaluate()
		if err != nil {
			b.Fatal(err)
		}
		if e.Throughput <= 0 {
			b.Fatal("zero throughput")
		}
	}
}

// BenchmarkMemTrace measures the sim-free memory replay of one plan.
func BenchmarkMemTrace(b *testing.B) {
	plan := core.Plan{Scheme: "hanayo-w2", Cluster: cluster.TACC(8),
		Model: nn.BERTStyle(), P: 8, D: 1, B: 16, MicroRows: 2}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		mt, err := plan.MemTrace()
		if err != nil {
			b.Fatal(err)
		}
		if len(mt.Curves) != 8 {
			b.Fatal("missing curves")
		}
	}
}

// BenchmarkRuntimeIteration measures one warm training iteration of the
// goroutine pipeline runtime (tiny model, 4 devices, 2 waves): the first
// step fills the workers' buffer pools, so two run before the timer.
func BenchmarkRuntimeIteration(b *testing.B) {
	cfg := nn.Tiny(14, 16, 2, 32, 8, true)
	s, err := sched.Hanayo(4, 2, 4)
	if err != nil {
		b.Fatal(err)
	}
	eng, err := runtime.New(runtime.Config{Schedule: s, Model: cfg, DP: 1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gen := data.NewGenerator(1, cfg.Vocab, cfg.SeqLen)
	batch := gen.Next(4)
	for i := -2; i < b.N; i++ {
		if i == 0 {
			b.ResetTimer()
		}
		if _, err := eng.Step(batch); err != nil {
			b.Fatal(err)
		}
	}
}

// autotuneSpace is the Fig 10-sized sweep used by the AutoTune benches.
func autotuneSpace(workers int) core.SearchSpace {
	return core.SearchSpace{
		PD:        [][2]int{{8, 4}, {16, 2}, {32, 1}},
		Waves:     []int{1, 2, 4, 8},
		B:         16,
		MicroRows: 2,
		Workers:   workers,
	}
}

// BenchmarkAutoTuneSerial is the baseline configuration search: one
// worker, every candidate measured in sequence.
func BenchmarkAutoTuneSerial(b *testing.B) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	for i := 0; i < b.N; i++ {
		if cands := core.AutoTune(cl, model, autotuneSpace(1)); len(cands) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkAutoTuneParallel runs the identical sweep with the default
// worker pool (one per CPU) and reports the serial/parallel wall-clock
// speedup — the §5.3 search is the hot path of every cluster-sizing run.
// On a single-core runner the pool degenerates to one worker and the
// metric stays ≈1.
func BenchmarkAutoTuneParallel(b *testing.B) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	core.AutoTune(cl, model, autotuneSpace(1)) // warmup both paths
	core.AutoTune(cl, model, autotuneSpace(0))
	// One warmed serial run is the baseline; only the parallel sweep is
	// averaged over b.N (keeping the benchmark's wall-clock bounded).
	start := time.Now()
	core.AutoTune(cl, model, autotuneSpace(1))
	serialPerOp := time.Since(start)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cands := core.AutoTune(cl, model, autotuneSpace(0)); len(cands) == 0 {
			b.Fatal("empty sweep")
		}
	}
	b.StopTimer()
	if perOp := b.Elapsed() / time.Duration(b.N); perOp > 0 {
		b.ReportMetric(float64(serialPerOp)/float64(perOp), "serial/parallel-x")
	}
}

// BenchmarkAutoTunePruned runs the serial fig10-sized sweep with the
// memory-first OOM front end: infeasible cells skip the timing model.
// On this space the win tracks the OOM fraction — the regime the pruning
// targets is model sizes where OOM is the common case.
func BenchmarkAutoTunePruned(b *testing.B) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	space := autotuneSpace(1)
	space.Prune = true
	for i := 0; i < b.N; i++ {
		if cands := core.AutoTune(cl, model, space); len(cands) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// BenchmarkLowerBound measures the analytic makespan lower bound across
// the nine sweep scheme families — the certificate every TopK sweep cell
// pays before deciding whether to simulate at all. No schedule is
// generated and nothing is simulated; CI pins the 0 allocs/op alongside
// the other steady-state budgets (TestLowerBoundAllocsZero enforces it).
func BenchmarkLowerBound(b *testing.B) {
	wl := costmodel.Workload{Model: nn.BERTStyle(), MicroRows: 2}
	cl := cluster.TACC(32)
	schemes := []string{"gpipe", "dapple", "chimera", "chimera-wave",
		"hanayo-w1", "hanayo-w2", "hanayo-w4", "interleaved-v2", "gems"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, scheme := range schemes {
			lb, err := costmodel.LowerBound(wl, cl, 8, 4, 16, scheme)
			if err != nil {
				b.Fatal(err)
			}
			if lb <= 0 {
				b.Fatal("non-positive bound")
			}
		}
	}
}

// BenchmarkAutoTuneFig10TopK is the bound-and-prune headline: the serial
// fig10-sized sweep at TopK=3 — the first three ranks exact, provably
// losing cells skipped by the analytic bound or aborted mid-simulation at
// their proven deadline. The reported metric is the wall-clock speedup
// over the identical exhaustive sweep (the acceptance bar is ≥3× cold;
// both sides run cold — no Tuner, no cross-sweep cache).
func BenchmarkAutoTuneFig10TopK(b *testing.B) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	space := autotuneSpace(1)
	space.TopK = 3
	// Warmed exhaustive baseline, measured once.
	core.AutoTune(cl, model, autotuneSpace(1))
	start := time.Now()
	core.AutoTune(cl, model, autotuneSpace(1))
	exhaustive := time.Since(start)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cands := core.AutoTune(cl, model, space); len(cands) == 0 {
			b.Fatal("empty sweep")
		}
	}
	b.StopTimer()
	if perOp := b.Elapsed() / time.Duration(b.N); perOp > 0 {
		b.ReportMetric(float64(exhaustive)/float64(perOp), "exhaustive/topk-x")
	}
}

// BenchmarkTunerRepeatedSweeps is the tuning-service headline: repeated
// fig10-sized sweeps served by one hanayo.Tuner (arena reuse + the
// cross-sweep evaluation cache) against back-to-back core.AutoTune calls
// that rebuild and resimulate everything. The acceptance bar is ≥2×; the
// cache turns repeat sweeps into pure lookups, so the measured ratio is
// orders of magnitude.
func BenchmarkTunerRepeatedSweeps(b *testing.B) {
	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	space := autotuneSpace(0)
	// Baseline: back-to-back standalone sweeps, one warmed measurement.
	core.AutoTune(cl, model, space)
	start := time.Now()
	core.AutoTune(cl, model, space)
	baseline := time.Since(start)

	tn := core.NewTuner(core.TunerOptions{})
	if cands := tn.AutoTune(cl, model, space); len(cands) == 0 { // cold sweep fills the cache
		b.Fatal("empty sweep")
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cands := tn.AutoTune(cl, model, space); len(cands) == 0 {
			b.Fatal("empty sweep")
		}
	}
	b.StopTimer()
	if perOp := b.Elapsed() / time.Duration(b.N); perOp > 0 {
		b.ReportMetric(float64(baseline)/float64(perOp), "autotune/tuner-x")
	}
}

// BenchmarkCachewireMultiGetRoundTrip measures one batched frame over
// real TCP: a 64-key MultiGet against a warm server — the round trip a
// sweep-start prefetch pays once where one Get per key would pay 64.
func BenchmarkCachewireMultiGetRoundTrip(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewCacheServer(0)
	go srv.Serve(l)
	defer srv.Close()
	client, err := DialCache(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	const keys = 64
	ks := make([]uint64, keys)
	ents := make([]RemoteEntry, keys)
	for i := range ks {
		ks[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
		ents[i] = RemoteEntry{PerReplica: float64(i), MaxGB: 8, Fits: i%2 == 0}
	}
	if err := client.MultiPut(ks, ents); err != nil {
		b.Fatal(err)
	}
	out := make([]RemoteEntry, keys)
	ok := make([]bool, keys)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.MultiGet(ks, out, ok); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	for i := range ok {
		if !ok[i] {
			b.Fatal("batched read missed a stored key")
		}
	}
}

// BenchmarkTunerRemoteTCPBatched is the distributed steady state the
// batched fabric exists for: a cold Tuner (fresh worker process) sweeping
// a fig10-sized grid whose keys all sit in a TCP tier. One prefetch
// MultiGet resolves the whole grid, so the sweep costs O(1) frames
// whatever its size.
func BenchmarkTunerRemoteTCPBatched(b *testing.B) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	srv := NewCacheServer(0)
	go srv.Serve(l)
	defer srv.Close()
	client, err := DialCache(l.Addr().String())
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	cl := cluster.TACC(32)
	model := nn.BERTStyle()
	space := autotuneSpace(0)
	warm := core.NewTuner(core.TunerOptions{Remote: client})
	if cands := warm.AutoTune(cl, model, space); len(cands) == 0 {
		b.Fatal("empty sweep")
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cold := core.NewTuner(core.TunerOptions{Remote: client})
		if cands := cold.AutoTune(cl, model, space); len(cands) == 0 {
			b.Fatal("empty sweep")
		}
	}
}

// -------------------------------------------------------------- ablations --

// BenchmarkAblationPrefetch compares makespans with receive prefetching on
// and off (paper §4.2): the reported metric is the slowdown without it.
func BenchmarkAblationPrefetch(b *testing.B) {
	s, err := sched.Hanayo(8, 2, 8)
	if err != nil {
		b.Fatal(err)
	}
	per := float64(s.S) / float64(s.P)
	cost := costmodel.Uniform{Tf: 1 / per, Tb: 2 / per, Tc: 0.1}
	var with, without float64
	for i := 0; i < b.N; i++ {
		r1, err := sim.Run(s, cost, sim.Options{Prefetch: true, BatchComm: true})
		if err != nil {
			b.Fatal(err)
		}
		r2, err := sim.Run(s, cost, sim.Options{Prefetch: false, BatchComm: true})
		if err != nil {
			b.Fatal(err)
		}
		with, without = r1.Makespan, r2.Makespan
	}
	b.ReportMetric((without/with-1)*100, "no-prefetch-slowdown-%")
}

// BenchmarkAblationBatchComm compares batched vs strictly ordered
// communication; unbatched bidirectional exchanges may deadlock, which the
// bench reports as a metric.
func BenchmarkAblationBatchComm(b *testing.B) {
	s, err := sched.Hanayo(8, 2, 8)
	if err != nil {
		b.Fatal(err)
	}
	per := float64(s.S) / float64(s.P)
	cost := costmodel.Uniform{Tf: 1 / per, Tb: 2 / per, Tc: 0.1}
	deadlocks := 0.0
	var slowdown float64
	for i := 0; i < b.N; i++ {
		batched, err := sim.Run(s, cost, sim.Options{Prefetch: true, BatchComm: true})
		if err != nil {
			b.Fatal(err)
		}
		seq, err := sim.Run(s, cost, sim.Options{Prefetch: false, BatchComm: false})
		if err != nil {
			deadlocks = 1
			continue
		}
		slowdown = (seq.Makespan/batched.Makespan - 1) * 100
	}
	b.ReportMetric(deadlocks, "deadlocked")
	b.ReportMetric(slowdown, "unbatched-slowdown-%")
}

// BenchmarkAblationPriority compares backward-first against forward-first
// scheduling on the same wave placement. The eager-backward rule's payoff
// is chiefly memory (activations released as soon as possible), so the
// bench reports both the makespan delta and the peak-activation delta.
func BenchmarkAblationPriority(b *testing.B) {
	var backFirst, fwdFirst float64
	var backPeak, fwdPeak int
	for i := 0; i < b.N; i++ {
		s1, err := sched.Hanayo(8, 2, 8)
		if err != nil {
			b.Fatal(err)
		}
		s2, err := sched.Hanayo(8, 2, 8, func(gp *sched.GenParams) {
			gp.Priority = sched.ForwardFirst
		})
		if err != nil {
			b.Fatal(err)
		}
		per := float64(s1.S) / float64(s1.P)
		cost := costmodel.Uniform{Tf: 1 / per, Tb: 2 / per}
		r1, err := sim.Run(s1, cost, sim.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		r2, err := sim.Run(s2, cost, sim.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		backFirst, fwdFirst = r1.Makespan, r2.Makespan
		backPeak, fwdPeak = 0, 0
		for d := range r1.PeakActs {
			backPeak = max(backPeak, r1.PeakActs[d])
			fwdPeak = max(fwdPeak, r2.PeakActs[d])
		}
	}
	b.ReportMetric((fwdFirst/backFirst-1)*100, "fwd-first-time-delta-%")
	b.ReportMetric(float64(fwdPeak-backPeak), "fwd-first-extra-peak-acts")
}

// BenchmarkAblationWaveVsInterleaved compares Hanayo's wave placement to
// Megatron's round-robin interleaving at equal chunk count (v = 2W): same
// stage granularity and memory class, different topology of stage hops.
func BenchmarkAblationWaveVsInterleaved(b *testing.B) {
	var wave, inter float64
	for i := 0; i < b.N; i++ {
		sw, err := sched.Hanayo(8, 2, 8)
		if err != nil {
			b.Fatal(err)
		}
		si, err := sched.Interleaved(8, 4, 8) // v = 2W = 4 chunks/device
		if err != nil {
			b.Fatal(err)
		}
		per := float64(sw.S) / float64(sw.P)
		cost := costmodel.Uniform{Tf: 1 / per, Tb: 2 / per, Tc: 0.05}
		rw, err := sim.Run(sw, cost, sim.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		ri, err := sim.Run(si, cost, sim.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		wave, inter = rw.Makespan, ri.Makespan
	}
	b.ReportMetric((inter/wave-1)*100, "interleaved-vs-wave-%")
}

// BenchmarkAblationWaves sweeps the wave count on a fixed cluster,
// reporting throughput per wave setting (the paper's central knob).
func BenchmarkAblationWaves(b *testing.B) {
	for _, w := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("W=%d", w), func(b *testing.B) {
			plan := core.Plan{
				Scheme:  fmt.Sprintf("hanayo-w%d", w),
				Cluster: cluster.FullNVLink(8),
				Model:   nn.BERTStyle(),
				P:       8, D: 1, B: 8, MicroRows: 2,
			}
			var thr float64
			for i := 0; i < b.N; i++ {
				t, err := plan.Throughput()
				if err != nil {
					b.Fatal(err)
				}
				thr = t
			}
			b.ReportMetric(thr, "seq/s")
		})
	}
}
