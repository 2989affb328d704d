package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/memmodel"
	"repro/internal/memtrace"
	"repro/internal/nn"
	"repro/internal/sched"
	"repro/internal/sim"
)

// memMargin is the share of device memory an evaluation may claim — core's
// feasibility headroom, which the decomposed walk must apply identically.
const memMargin = 0.95

// fig10Space is the paper's Fig 10 grid as every sweep workload runs it:
// 3 (P, D) pairs × (3 baseline schemes + 4 Hanayo wave counts) = 21 cells
// that reduce to 12 ranked rows. Sweeps are pinned to one worker so the
// closed loop has exactly one load-generating thread.
func fig10Space(topK, workers int) core.SearchSpace {
	return core.SearchSpace{
		PD:        [][2]int{{8, 4}, {16, 2}, {32, 1}},
		Waves:     []int{1, 2, 4, 8},
		B:         16,
		MicroRows: 2,
		Workers:   workers,
		TopK:      topK,
	}
}

// presetCluster folds the run's straggler into a named preset.
func presetCluster(name string, n int, in inputs) (*cluster.Cluster, error) {
	cl, err := cluster.ByName(name, n)
	if err != nil {
		return nil, err
	}
	return cluster.ApplyStraggler(cl, in.stragglerSpec())
}

// row is one ranked output row in comparable form: what must agree bit
// for bit between the decomposed walk, core.AutoTune, a tier-served sweep
// and hanayo-tuned's shard files.
type row struct {
	Scheme string
	P, D   int
	Thr    uint64 // Float64bits of the total throughput
	PeakGB uint64
	OOM    bool
	Err    bool
}

func rowsOf(cands []core.Candidate) []row {
	out := make([]row, len(cands))
	for i, c := range cands {
		out[i] = row{Scheme: c.Plan.Scheme, P: c.Plan.P, D: c.Plan.D,
			Thr: math.Float64bits(c.Throughput), PeakGB: math.Float64bits(c.PeakGB),
			OOM: c.OOM, Err: c.Err != nil}
	}
	return out
}

// sameRows compares the first n rows (all of them when n <= 0).
func sameRows(what string, got, want []row, n int) error {
	if n <= 0 {
		if len(got) != len(want) {
			return fmt.Errorf("%s: %d rows, want %d", what, len(got), len(want))
		}
		n = len(want)
	}
	if len(got) < n || len(want) < n {
		return fmt.Errorf("%s: %d rows against %d, need %d", what, len(got), len(want), n)
	}
	for i := 0; i < n; i++ {
		if got[i] != want[i] {
			return fmt.Errorf("%s: rank %d is %+v, want %+v", what, i+1, got[i], want[i])
		}
	}
	return nil
}

// cell is one grid cell of the decomposed walk.
type cell struct {
	scheme string
	p, d   int
	wave   bool // member of the (P, D) Hanayo wave group
	slot   int  // output row the cell feeds
	ub     float64
	thr    float64 // exact total throughput; 0 when OOM, failed or not fully evaluated
	peakGB float64
	oom    bool
	errd   bool
}

// walkStats counts what one decomposed walk did.
type walkStats struct {
	genCalls, actions   int
	simCalls, simActs   int
	lbCalls             int
	aborts              int
	bestBubble, bestThr float64
	layerMS             float64 // Σ of the walk's layer spans (traced walks only)
}

// sweepInst is one of the three sweep workloads: a cold core.AutoTune per
// op over the Fig 10 grid, checked against a ranking the benchmark derives
// on its own by walking the grid layer by layer.
type sweepInst struct {
	e     *env
	cl    *cluster.Cluster
	model nn.Config
	space core.SearchSpace
	wl    costmodel.Workload

	want     []row // exhaustive ranking from the decomposed walk
	wantSims int64 // simulations an exhaustive sweep issues
	sims     int64 // simulations the last op issued
	opSims   int64 // …and the first op, which every later op must repeat
	got      []core.Candidate
}

func sweepWorkload(name, why, clusterName string, model func() nn.Config, topK int) workload {
	return workload{name: name, why: why, setup: func(e *env) (instance, error) {
		cl, err := presetCluster(clusterName, 32, e.in)
		if err != nil {
			return nil, err
		}
		s := &sweepInst{e: e, cl: cl, model: model(), space: fig10Space(topK, 1)}
		s.wl = costmodel.Workload{Model: s.model, MicroRows: s.space.MicroRows}
		cells, st, err := s.walk(nil, 0)
		if err != nil {
			return nil, err
		}
		s.want, s.wantSims = rankCells(cells), int64(st.simCalls)
		return s, nil
	}}
}

func (s *sweepInst) prep() error { return nil }

func (s *sweepInst) op() error {
	before := core.SimRuns()
	id := s.e.tr.begin("core.autotune")
	s.got = core.AutoTune(s.cl, s.model, s.space)
	s.e.tr.end(id)
	s.sims = core.SimRuns() - before
	return nil
}

func (s *sweepInst) check() error {
	if s.opSims == 0 {
		s.opSims = s.sims
	}
	if s.sims != s.opSims {
		return fmt.Errorf("op issued %d simulations, the first op %d", s.sims, s.opSims)
	}
	if s.space.TopK == 0 && s.sims != s.wantSims {
		return fmt.Errorf("exhaustive sweep issued %d simulations, decomposed walk %d", s.sims, s.wantSims)
	}
	if s.sims > s.wantSims {
		return fmt.Errorf("bounded sweep issued %d simulations, more than the exhaustive %d", s.sims, s.wantSims)
	}
	return sameRows("core.AutoTune vs decomposed walk", rowsOf(s.got), s.want, s.space.TopK)
}

func (s *sweepInst) close() error { return nil }

// grid lays the cells out exactly as core's sweep does: (P, D) major,
// baseline schemes then the wave group, which shares one output row.
func (s *sweepInst) grid() []cell {
	var cells []cell
	slot := 0
	for _, pd := range s.space.PD {
		for _, scheme := range core.DefaultSchemes() {
			cells = append(cells, cell{scheme: scheme, p: pd[0], d: pd[1], slot: slot, ub: math.Inf(1)})
			slot++
		}
		for _, w := range s.space.Waves {
			cells = append(cells, cell{scheme: fmt.Sprintf("hanayo-w%d", w), p: pd[0], d: pd[1],
				wave: true, slot: slot, ub: math.Inf(1)})
		}
		slot++
	}
	return cells
}

// walker holds one decomposed op's executors. Like a cold core.AutoTune it
// starts them empty, so arena growth is paid inside the op.
type walker struct {
	s      *sweepInst
	tr     *tracer
	gen    *sched.Generator
	runner *sim.Runner
	st     walkStats
}

// evaluate measures one cell the way core's evaluator does — generate,
// cost tables, one simulation (capped at deadline when positive), memory
// estimate — with a span around each layer call. It reports whether the
// deadline aborted the simulation.
func (w *walker) evaluate(c *cell, deadline float64) (aborted bool, err error) {
	s, tr := w.s, w.tr
	rows := s.space.B * s.space.MicroRows

	id := tr.begin("sched.generate")
	sch, gerr := w.gen.Generate(c.scheme, c.p, s.space.B)
	tr.end(id)
	w.st.genCalls++
	if gerr != nil {
		c.errd = true
		return false, nil
	}
	w.st.actions += sch.NumActions()

	id = tr.begin("costmodel.new")
	cost, err := costmodel.New(s.wl, s.cl, sch)
	tr.end(id)
	if err != nil {
		return false, err
	}

	id = tr.begin("sim.run")
	var res *sim.Result
	var exceeded bool
	if deadline > 0 {
		res, exceeded, err = w.runner.RunDeadline(sch, cost, sim.DefaultOptions(), deadline)
	} else {
		res, err = w.runner.Run(sch, cost, sim.DefaultOptions())
	}
	tr.end(id)
	w.st.simCalls++
	w.st.simActs += sch.NumActions()
	if err != nil {
		return false, err
	}
	if exceeded {
		w.st.aborts++
		return true, nil
	}

	id = tr.begin("memmodel.estimate")
	mem := memmodel.ForSchedule(sch, s.model, s.space.MicroRows, res.PeakActs)
	fits := memmodel.FitsCluster(mem, s.cl, memMargin)
	tr.end(id)
	c.peakGB = mem.MaxGB()
	if !fits {
		c.oom = true
		return false, nil
	}
	c.thr = sim.Throughput(res, rows) * float64(c.d)
	if c.thr > w.st.bestThr {
		w.st.bestThr, w.st.bestBubble = c.thr, res.BubbleRatio()
	}
	return false, nil
}

// walk is the decomposed op: the grid evaluated by explicit calls into
// sched, costmodel, sim and memmodel. topK == 0 visits every cell; topK > 0
// is a serial branch-and-bound over costmodel.LowerBound in the manner of
// core's TopK sweep (best bound first, skip below the Kth-best row, cap the
// rest at the cutoff-derived deadline).
func (s *sweepInst) walk(tr *tracer, topK int) ([]cell, walkStats, error) {
	root := tr.begin("decomposed")
	defer tr.end(root)
	cells := s.grid()
	w := &walker{s: s, tr: tr, gen: sched.NewGenerator(), runner: sim.NewRunner()}
	order := make([]int, len(cells))
	for i := range order {
		order[i] = i
	}
	rows := float64(s.space.B * s.space.MicroRows)
	if topK > 0 {
		for i := range cells {
			c := &cells[i]
			lid := tr.begin("costmodel.lowerbound")
			lb, err := costmodel.LowerBound(s.wl, s.cl, c.p, c.d, s.space.B, c.scheme)
			tr.end(lid)
			w.st.lbCalls++
			if err == nil && lb > 0 {
				c.ub = float64(c.d) * rows / lb
			}
		}
		sort.SliceStable(order, func(a, b int) bool { return cells[order[a]].ub > cells[order[b]].ub })
	}
	best := make([]float64, cells[len(cells)-1].slot+1) // per output row
	cutoff := 0.0
	for _, i := range order {
		c := &cells[i]
		var deadline float64
		if cutoff > 0 {
			if c.ub < cutoff {
				continue
			}
			deadline = float64(c.d) * rows / cutoff
		}
		aborted, err := w.evaluate(c, deadline)
		if err != nil {
			return nil, w.st, fmt.Errorf("decomposed walk, %s P=%d: %w", c.scheme, c.p, err)
		}
		if aborted || topK == 0 || c.thr <= best[c.slot] {
			continue
		}
		best[c.slot] = c.thr
		if len(best) >= topK {
			sorted := append([]float64(nil), best...)
			sort.Sort(sort.Reverse(sort.Float64Slice(sorted)))
			cutoff = sorted[topK-1]
		}
	}
	w.st.layerMS = tr.childMS(root)
	return cells, w.st, nil
}

// rankCells reduces evaluated cells to the ranking core.AutoTune
// must print: per (P, D) the baseline rows, then the wave group's first
// maximum, all stably sorted by throughput.
func rankCells(cells []cell) []row {
	var out []cell
	for i := 0; i < len(cells); {
		if !cells[i].wave {
			out = append(out, cells[i])
			i++
			continue
		}
		best := cells[i]
		for i++; i < len(cells) && cells[i].wave && cells[i].slot == best.slot; i++ {
			if cells[i].thr > best.thr {
				best = cells[i]
			}
		}
		out = append(out, best)
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].thr > out[b].thr })
	rows := make([]row, len(out))
	for i, c := range out {
		rows[i] = row{Scheme: c.scheme, P: c.p, D: c.d, Thr: math.Float64bits(c.thr),
			PeakGB: math.Float64bits(c.peakGB), OOM: c.oom, Err: c.errd}
	}
	return rows
}

// minCoverage is the share of a cold exhaustive core.AutoTune that the
// decomposed walk's layer calls must account for. Below it the walk no
// longer describes the sweep and the per-layer times attribute nothing.
// The median of fewer than coverageRounds rounds is reported, not judged:
// a round is two 40 ms measurements, and one descheduling moves it by 0.1.
const (
	minCoverage    = 0.85
	coverageRounds = 20
)

// layers attributes the sweep. Each round is a traced real op and then a
// decomposed walk, back to back so that a slow spell falls on both: the
// walk's layer spans over the op's duration is the round's coverage. The
// walks give each layer's time per op, the real ops core.sweep_ms, and
// core.self_ms is what is left — dedup, ranking, candidate assembly,
// evaluator construction.
func (s *sweepInst) layers(budget time.Duration, m *metricSet) error {
	tr := s.e.tr
	var st walkStats
	var coverage []float64
	deadline := time.Now().Add(budget / 2)
	for n := 0; n < 5 || time.Now().Before(deadline); n++ {
		tr.nextOp()
		t0 := time.Now()
		if err := s.op(); err != nil {
			return err
		}
		opMS := ms(time.Since(t0))
		if err := s.check(); err != nil {
			return err
		}
		tr.nextOp()
		cells, wst, err := s.walk(tr, s.space.TopK)
		if err != nil {
			return err
		}
		// Skipped and aborted cells rank with throughput 0, so a bounded
		// walk is held to its exact top K and an exhaustive one to every row.
		if err := sameRows("decomposed walk", rankCells(cells), s.want, s.space.TopK); err != nil {
			return err
		}
		st = wst
		coverage = append(coverage, wst.layerMS/opMS)
	}
	// Only the exhaustive walk does what core does cell for cell; the
	// bounded one orders and prunes in core's manner, not in its steps.
	if cov := median(coverage); s.space.TopK == 0 && len(coverage) >= coverageRounds && cov < minCoverage {
		return fmt.Errorf("decomposed layer calls cover %.2f of core.AutoTune, want at least %.2f", cov, minCoverage)
	}
	m.set("core.layer_coverage", median(coverage))
	spans := tr.perOp()
	perOp := func(name string) float64 { return median(spans[name]) }
	gen, cost, lb := perOp("sched.generate"), perOp("costmodel.new"), perOp("costmodel.lowerbound")
	run, est := perOp("sim.run"), perOp("memmodel.estimate")
	sweep := perOp("core.autotune")
	m.set("sched.generate_ms", gen)
	m.set("sched.generate_calls", float64(st.genCalls))
	m.set("sched.actions", float64(st.actions))
	m.set("costmodel.new_ms", cost)
	m.set("costmodel.lowerbound_us", lb*1e3)
	m.set("costmodel.lowerbound_calls", float64(st.lbCalls))
	m.set("sim.run_ms", run)
	m.set("sim.run_calls", float64(st.simCalls))
	if st.simActs > 0 {
		m.set("sim.ns_per_action", run*1e6/float64(st.simActs))
	}
	m.set("sim.deadline_aborts", float64(st.aborts))
	if st.simCalls > 0 {
		m.set("sim.aborted_share", float64(st.aborts)/float64(st.simCalls))
	}
	m.set("sim.bubble_ratio_best", st.bestBubble)
	m.set("memmodel.estimate_ms", est)
	m.set("core.sweep_ms", sweep)
	m.set("core.self_ms", max(0, sweep-gen-cost-lb-run-est))
	m.set("core.sims_per_op", float64(s.opSims))
	rankingMetrics(s.got, m)

	if err := s.memtraceProbe(budget/8, m); err != nil {
		return err
	}
	gain, err := hanayoGainPct()
	if err != nil {
		return err
	}
	m.set("sim.hanayo_gain_pct", gain)
	if n := runtime.NumCPU(); n > 1 {
		sweepWith := func(workers int) func() error {
			space := s.space
			space.Workers = workers
			return func() error { core.AutoTune(s.cl, s.model, space); return nil }
		}
		serial, _ := timeMedian(budget/8, 3, sweepWith(1))
		parallel, _ := timeMedian(budget/8, 3, sweepWith(n))
		m.set("core.workers_scaling_x", float64(serial)/float64(parallel))
	}
	return nil
}

// rankingMetrics reports what a ranking itself says: rows the bound pruned,
// rows out of memory, and the winner's simulated throughput.
func rankingMetrics(got []core.Candidate, m *metricSet) {
	var pruned, oom int
	for _, c := range got {
		if c.BoundPruned {
			pruned++
		}
		if c.OOM {
			oom++
		}
	}
	m.set("core.bound_pruned", float64(pruned))
	m.set("core.oom_rows", float64(oom))
	if best, ok := core.Best(got); ok {
		m.set("core.plan_seq_per_s", best.Throughput)
	}
}

// memtraceProbe prices the memtrace-first front end the sweep does not run
// by default (SearchSpace.Prune): the budgeted replay of every grid key,
// and the share of keys it would have kept away from the simulator.
func (s *sweepInst) memtraceProbe(budget time.Duration, m *metricSet) error {
	gen, replay := sched.NewGenerator(), memtrace.NewReplayer()
	var schedules []*sched.Schedule
	for _, c := range s.grid() {
		sch, err := gen.Generate(c.scheme, c.p, s.space.B)
		if err != nil {
			continue // the sweep reports such a cell as an error row
		}
		schedules = append(schedules, sch.Clone())
	}
	exceeded := 0
	var limits []float64
	d, err := timeMedian(budget, 3, func() error {
		exceeded = 0
		for _, sch := range schedules {
			weights := memmodel.Weights(sch, s.model)
			limits = limits[:0]
			over := false
			for dev := 0; dev < sch.P; dev++ {
				b := s.cl.MemBytes(dev%s.cl.N())*memMargin - weights[dev]
				over = over || b < 0
				limits = append(limits, b)
			}
			if !over {
				_, ex, err := replay.RunBudget(sch, s.model, s.space.MicroRows, limits)
				if err != nil {
					return err
				}
				over = ex
			}
			if over {
				exceeded++
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	m.set("memtrace.replay_ms", float64(d)/1e6)
	m.set("memtrace.exceeded_share", float64(exceeded)/float64(len(schedules)))
	return nil
}

// hanayoGainPct is the paper's headline in simulated time: Hanayo with four
// waves against Chimera-wave on the fully NVLinked 8-GPU cluster (paper:
// up to 30.4 %). It is independent of the seed and of host speed.
func hanayoGainPct() (float64, error) {
	base := core.Plan{Scheme: "chimera-wave", Cluster: cluster.FullNVLink(8),
		Model: nn.BERTStyle(), P: 8, D: 1, B: 8, MicroRows: 2}
	cw, err := base.Throughput()
	if err != nil {
		return 0, err
	}
	base.Scheme = "hanayo-w4"
	hw, err := base.Throughput()
	if err != nil {
		return 0, err
	}
	return (hw/cw - 1) * 100, nil
}
