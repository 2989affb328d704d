// Package core is Hanayo's unified pipeline-parallelism framework (paper
// §3): a Plan ties together a scheme, a cluster, a model and the pipeline
// shape (P devices, D data-parallel replicas, W waves, B micro-batches),
// and provides schedule generation, memory feasibility, simulated
// throughput, real-runtime construction and the configuration search of
// §5.3 (Fig 10).
package core

import (
	"cmp"
	"fmt"
	"math"
	goruntime "runtime"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/memmodel"
	"repro/internal/memtrace"
	"repro/internal/nn"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Plan is one fully specified pipeline-parallel training configuration.
type Plan struct {
	Scheme    string // "gpipe", "dapple", "chimera", "chimera-wave", "hanayo-w<N>"
	Cluster   *cluster.Cluster
	Model     nn.Config
	P         int // pipeline devices per replica
	D         int // data-parallel replicas
	B         int // micro-batches per replica per iteration
	MicroRows int // sequences per micro-batch

	// Faults injects a sim.FaultPlan into every timed evaluation of this
	// plan: mid-run slowdowns and link degradations stretch the simulated
	// makespan, and a device failure yields an infeasible verdict with a
	// recovery estimate (Candidate.Failed) instead of a throughput. Nil is
	// the fault-free plan. The plan applies to the simulated replica
	// (devices 0..P-1); evaluations stay D-invariant because every replica
	// of a sweep shares the same plan.
	Faults *sim.FaultPlan
}

// schedKey identifies one action-list program: schedules depend only on
// the scheme and the (P, B) shape, not on cluster, model or D. It indexes
// a sweep's memoized evaluations, which is sound only because cluster,
// model and MicroRows are constant across one sweep and the per-replica
// simulation is D-invariant (replicas are identical and concurrent; only
// the final throughput scales by D, which candidateFrom applies per plan).
type schedKey struct {
	scheme string
	p, b   int
}

// sweepCache is one sweep's memo of D-invariant evaluations, one per
// (scheme, P, B) key: eval serves the exhaustive sweep, full the
// branch-and-bound one. It holds evaluations only — a key's schedule
// lives on the measuring worker's Generator and is gone when the
// measurement returns. The cached *evalShared are shared read-only by
// every worker.
type sweepCache struct {
	mu sync.Mutex
	// eval entries are built exactly once (sync.Once) even under the
	// parallel sweep.
	eval map[schedKey]*evalEntry
	// full is the branch-and-bound sweep's result memo (TopK > 0): only
	// COMPLETE evaluations — full simulations, memtrace OOM verdicts,
	// deterministic errors — all of them D-invariant. Deadline-aborted
	// results never enter (their abort cap depends on the observing cell's
	// D and the cutoff at evaluation time, so they are not reusable facts
	// about the key). Unlike eval there is no per-key Once: racing workers
	// may duplicate a bounded measurement, which only over-evaluates.
	full map[schedKey]*fullEntry
}

type fullEntry struct {
	e   *evalShared
	err error
}

// peekFull returns the memoized complete evaluation of k, if any.
func (c *sweepCache) peekFull(k schedKey) (*evalShared, error, bool) {
	c.mu.Lock()
	f, ok := c.full[k]
	c.mu.Unlock()
	if !ok {
		return nil, nil, false
	}
	return f.e, f.err, true
}

// publishFull memoizes a complete evaluation (or its deterministic
// error); the caller must never pass a deadline-aborted result.
func (c *sweepCache) publishFull(k schedKey, e *evalShared, err error) {
	c.mu.Lock()
	if _, ok := c.full[k]; !ok {
		c.full[k] = &fullEntry{e: e, err: err}
	}
	c.mu.Unlock()
}

// memMargin is the fraction of device HBM an evaluation may claim — the
// standard 5% framework-reserve headroom applied by every feasibility
// check (Plan.Fits, the sweep's OOM cells, the pruning budgets).
const memMargin = 0.95

// evalShared is the D-invariant slice of one evaluation: everything a
// candidate needs except the ×D throughput scaling.
type evalShared struct {
	sim        *sim.Result        // nil on pruned and cache-hit paths
	mt         *memtrace.Result   // AnalyticOnly path only
	mem        *memmodel.Estimate // nil on cross-sweep cache hits
	fits       bool
	pruned     bool    // OOM decided by the memtrace front end; no sim ran
	maxGB      float64 // peak per-device footprint (mem.MaxGB() when mem != nil)
	perReplica float64 // sequences/s of one replica
	// boundOnly marks a deadline-aborted evaluation (the bound-and-prune
	// sweep's RunDeadline path): no complete simulation ran, and
	// perReplica is a proven UPPER bound on the per-replica throughput
	// (B·MicroRows over the partial makespan, itself a makespan lower
	// bound) rather than an exact value. boundOnly results are never
	// cached — not in the sweep memo, the Tuner tiers or the remote tier.
	boundOnly bool
	// failed marks a deterministic infeasible-on-faulty-cluster verdict:
	// the plan's FaultPlan killed a device mid-schedule. failedDev,
	// failTime and recovery carry the sim's diagnostic; no memory estimate
	// or throughput exists. Failed verdicts are complete, deterministic
	// and D-invariant, so they cache like any evaluation — though the
	// remote tier carries only the verdict bit, not the diagnostics.
	failed    bool
	failedDev int
	failTime  float64
	recovery  float64
	// splitBW marks an evaluation measured under split-backward semantics
	// (zbh1-family schemes whose backwards run as separate input-grad and
	// weight-grad actions). Carried through the cache tiers as the wire
	// entry's SplitBW flag so split and fused verdicts stay auditable.
	splitBW bool
}

// splitBackwardScheme reports whether scheme executes split backwards —
// separate OpBackwardInput/OpBackwardWeight actions instead of the fused
// OpBackward — mirroring sched's scheme-family resolution. It tags
// evaluations for the cache tiers' SplitBW flag.
func splitBackwardScheme(scheme string) bool { return scheme == "zbh1" }

type evalEntry struct {
	once sync.Once
	e    *evalShared
	err  error
}

func newSweepCache() *sweepCache {
	return &sweepCache{eval: map[schedKey]*evalEntry{}, full: map[schedKey]*fullEntry{}}
}

// evalFor memoizes the D-invariant evaluation of one (scheme, P, B) key;
// build runs at most once per sweep even under the parallel pool.
func (c *sweepCache) evalFor(k schedKey, build func() (*evalShared, error)) (*evalShared, error) {
	c.mu.Lock()
	e, ok := c.eval[k]
	if !ok {
		e = &evalEntry{}
		c.eval[k] = e
	}
	c.mu.Unlock()
	e.once.Do(func() { e.e, e.err = build() })
	return e.e, e.err
}

// Validate checks structural consistency against the cluster.
func (p Plan) Validate() error {
	if p.Cluster == nil {
		return fmt.Errorf("core: plan needs a cluster")
	}
	if p.P <= 0 || p.D <= 0 || p.B <= 0 || p.MicroRows <= 0 {
		return fmt.Errorf("core: P, D, B, MicroRows must be positive (got %d,%d,%d,%d)", p.P, p.D, p.B, p.MicroRows)
	}
	if p.P*p.D > p.Cluster.N() {
		return fmt.Errorf("core: plan uses %d devices, cluster has %d", p.P*p.D, p.Cluster.N())
	}
	if err := p.Faults.Validate(p.P); err != nil {
		return err
	}
	return p.Model.Validate()
}

// Schedule generates the action lists for one replica. Generation fuses
// validation (the output arrives proven executable), and a fresh
// single-use Generator compiles it, so the caller may retain the result.
func (p Plan) Schedule() (*sched.Schedule, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return sched.ByName(p.Scheme, p.P, p.B)
}

// Simulate runs the discrete-event executor with the cluster cost model and
// returns the per-replica result (replicas are identical and concurrent).
func (p Plan) Simulate(opt sim.Options) (*sim.Result, error) {
	s, err := p.Schedule()
	if err != nil {
		return nil, err
	}
	cost, err := costmodel.New(costmodel.Workload{Model: p.Model, MicroRows: p.MicroRows}, p.Cluster, s)
	if err != nil {
		return nil, err
	}
	simRuns.Add(1)
	return sim.RunFaults(s, cost, opt, p.Faults)
}

// simRuns counts every sim.Run issued through Plan evaluation — the test
// hook asserting the sweep's one-simulation-per-candidate-key discipline.
var simRuns atomic.Int64

// Eval is one plan's complete single-pass evaluation: everything the
// configuration search needs from exactly one discrete-event simulation.
type Eval struct {
	// Sim is the per-replica simulation result (nil with AnalyticOnly).
	Sim *sim.Result
	// MemTrace is the memory-replay result backing an AnalyticOnly
	// evaluation (live-byte curves included); nil on the simulated path,
	// which derives peaks from Sim instead.
	MemTrace *memtrace.Result
	// Memory is the per-device peak-memory estimate, built from the
	// simulation's activation peaks (or the memtrace replay's, with
	// AnalyticOnly — the two are provably identical).
	Memory *memmodel.Estimate
	// Fits reports whether Memory fits every device with the standard 5%
	// framework headroom.
	Fits bool
	// Throughput is end-to-end sequences/second across all D replicas
	// (0 with AnalyticOnly: no timing model ran).
	Throughput float64
}

// EvalOptions tunes Plan.EvaluateOpts.
type EvalOptions struct {
	// Sim configures the discrete-event executor (DefaultOptions when
	// calling Evaluate).
	Sim sim.Options
	// AnalyticOnly skips the timing simulation entirely: activation peaks
	// come from the memtrace replay (measured against the memory model,
	// no tensor math, no clock), Throughput stays 0 and Eval.Sim nil.
	// This is the old Memory() fallback made explicit — evaluation errors
	// now propagate instead of silently downgrading the peak source.
	AnalyticOnly bool
}

// Evaluate measures the plan with the paper-faithful executor options:
// one simulation produces the memory estimate, the feasibility verdict
// and the throughput together. Memory, Fits and Throughput are thin views
// over this.
func (p Plan) Evaluate() (*Eval, error) {
	return p.EvaluateOpts(EvalOptions{Sim: sim.DefaultOptions()})
}

// EvaluateOpts is Evaluate with explicit options.
func (p Plan) EvaluateOpts(opt EvalOptions) (*Eval, error) {
	shared, err := p.evaluateShared(opt)
	if err != nil {
		return nil, err
	}
	return p.evalView(shared), nil
}

// evalView scales the D-invariant shared evaluation to this plan.
func (p Plan) evalView(s *evalShared) *Eval {
	return &Eval{
		Sim:        s.sim,
		MemTrace:   s.mt,
		Memory:     s.mem,
		Fits:       s.fits,
		Throughput: s.perReplica * float64(p.D),
	}
}

// evaluateShared performs the actual single-pass measurement of one
// replica: one sim.Run (or one memtrace replay), one memory estimate, one
// feasibility check.
func (p Plan) evaluateShared(opt EvalOptions) (*evalShared, error) {
	s, err := p.Schedule()
	if err != nil {
		return nil, err
	}
	if opt.AnalyticOnly {
		mt, err := memtrace.Run(s, p.Model, p.MicroRows)
		if err != nil {
			return nil, err
		}
		mem := memmodel.ForSchedule(s, p.Model, p.MicroRows, mt.PeakActs)
		return &evalShared{mt: mt, mem: mem, maxGB: mem.MaxGB(),
			fits:    memmodel.FitsCluster(mem, p.Cluster, memMargin),
			splitBW: splitBackwardScheme(p.Scheme)}, nil
	}
	return p.simEvaluate(s, opt.Sim, nil, 0)
}

// simEvaluate is the one implementation of the timed-evaluation recipe:
// one simulation of schedule s against the plan's cluster cost model,
// yielding the memory estimate, the feasibility verdict and the
// per-replica throughput together. runner == nil runs a fresh sim.Run and
// retains its Result in the evalShared (the Plan.Evaluate path); a
// non-nil runner reuses its arenas, and everything the evaluation keeps
// is extracted into fresh storage before the Runner's next run
// invalidates the Result (the sweep/service path). deadline > 0 (which
// requires a runner — the bound-and-prune sweep path) caps the virtual
// clock: an aborted run returns a boundOnly evalShared whose perReplica
// is the proven per-replica throughput upper bound, counting toward
// SimRuns like any simulation it actually started.
func (p Plan) simEvaluate(s *sched.Schedule, opt sim.Options, runner *sim.Runner, deadline float64) (*evalShared, error) {
	cost, err := costmodel.New(costmodel.Workload{Model: p.Model, MicroRows: p.MicroRows}, p.Cluster, s)
	if err != nil {
		return nil, err
	}
	simRuns.Add(1)
	var r *sim.Result
	if deadline > 0 && runner != nil {
		var exceeded bool
		r, exceeded, err = runner.RunFaultsDeadline(s, cost, opt, p.Faults, deadline)
		if err == nil && exceeded {
			return &evalShared{boundOnly: true,
				perReplica: float64(p.B*p.MicroRows) / r.Makespan}, nil
		}
	} else if runner != nil {
		r, err = runner.RunFaults(s, cost, opt, p.Faults)
	} else {
		r, err = sim.RunFaults(s, cost, opt, p.Faults)
	}
	if err != nil {
		return nil, err
	}
	if r.Failed {
		// The fault plan killed a device: a deterministic infeasible
		// verdict with the sim's recovery diagnostic — no memory estimate
		// or throughput exists for the aborted prefix.
		return &evalShared{failed: true, failedDev: r.FailedDevice,
			failTime: r.FailTime, recovery: r.Recovery,
			splitBW: splitBackwardScheme(p.Scheme)}, nil
	}
	mem := memmodel.ForSchedule(s, p.Model, p.MicroRows, r.PeakActs)
	es := &evalShared{
		mem:        mem,
		maxGB:      mem.MaxGB(),
		fits:       memmodel.FitsCluster(mem, p.Cluster, memMargin),
		perReplica: sim.Throughput(r, p.B*p.MicroRows),
		splitBW:    splitBackwardScheme(p.Scheme),
	}
	if runner == nil {
		es.sim = r // fresh single-use result: safe to retain
	}
	return es, nil
}

// MemTrace replays the plan's schedule against the memory model only,
// returning the measured per-device live-byte curves (Fig 8's distribution
// measured instead of estimated).
func (p Plan) MemTrace() (*memtrace.Result, error) {
	s, err := p.Schedule()
	if err != nil {
		return nil, err
	}
	return memtrace.Run(s, p.Model, p.MicroRows)
}

// Memory estimates per-device peak memory using the simulator's activation
// peaks — a view over Evaluate. Simulation errors propagate; for a
// deliberately sim-free estimate use EvaluateOpts with AnalyticOnly.
func (p Plan) Memory() (*memmodel.Estimate, error) {
	e, err := p.Evaluate()
	if err != nil {
		return nil, err
	}
	return e.Memory, nil
}

// Fits reports whether the plan's peak memory fits every device (with a
// 5% headroom, matching framework reserves) — a view over Evaluate.
func (p Plan) Fits() (bool, error) {
	e, err := p.Evaluate()
	if err != nil {
		return false, err
	}
	return e.Fits, nil
}

// Throughput returns simulated end-to-end sequences/second across all D
// replicas (replicas run concurrently on disjoint devices) — a view over
// Evaluate.
func (p Plan) Throughput() (float64, error) {
	e, err := p.Evaluate()
	if err != nil {
		return 0, err
	}
	return e.Throughput, nil
}

// Engine builds the real training runtime for this plan (requires the
// model to be deep enough for the stage count).
func (p Plan) Engine(seed uint64, newOpt func() nn.Optimizer) (*runtime.Engine, error) {
	s, err := p.Schedule()
	if err != nil {
		return nil, err
	}
	return runtime.New(runtime.Config{
		Schedule:     s,
		Model:        p.Model,
		DP:           p.D,
		Seed:         seed,
		NewOptimizer: newOpt,
	})
}

// Candidate is one point of the Fig 10 search space with its outcome.
type Candidate struct {
	Plan       Plan
	Throughput float64 // sequences/s; 0 when OOM
	PeakGB     float64
	OOM        bool
	// Pruned marks an OOM verdict produced by the memtrace-first front end
	// (SearchSpace.Prune): the cell never entered the timing simulation,
	// and PeakGB is the infeasibility-proving lower bound the aborted
	// replay observed rather than the full-iteration peak.
	Pruned bool
	// BoundPruned marks a cell the bound-and-prune sweep (SearchSpace.TopK)
	// eliminated without a complete simulation — its analytic lower bound
	// already lost to the ranking cutoff, or its deadline-capped simulation
	// proved the makespan exceeds the cap. Such a cell is provably outside
	// the exact top K. Throughput holds the best fully evaluated value
	// behind the row (0 when nothing completed — always, except for a
	// Hanayo wave-group row some of whose waves did evaluate) and Bound the
	// proven upper bound on what the row could have scored.
	BoundPruned bool
	// Bound is the proven total-throughput upper bound (sequences/s across
	// all D replicas) of a BoundPruned row; 0 otherwise. For a wave-group
	// row it is the max over its pruned waves' bounds when that exceeds the
	// best fully evaluated wave.
	Bound float64
	// Failed marks a deterministic infeasible verdict from the plan's
	// FaultPlan: a device died mid-schedule, so the configuration cannot
	// complete an iteration on the faulty cluster. FailedDevice and
	// FailTimeS identify the triggering event; RecoveryS is the simulator's
	// restart-from-checkpoint makespan estimate. Cache-served verdicts may
	// carry only the flag (zero diagnostics) — the remote tier drops them.
	Failed       bool
	FailedDevice int
	FailTimeS    float64
	RecoveryS    float64
	Err          error
}

// SearchSpace bounds the AutoTune sweep.
type SearchSpace struct {
	Schemes []string // nil → GPipe, DAPPLE, Chimera-wave (Hanayo is always swept)
	// PD lists the (P, D) combinations; nil → power-of-two divisor pairs
	// of N. Evaluations are shared per (scheme, P, B) key — the
	// per-replica makespan is D-independent — so a grid listing the same
	// P under several D values must keep them equally valid (all with
	// P·D ≤ N, or none): mixing a feasible and an infeasible D for one P
	// lets whichever cell reaches the key first decide both verdicts,
	// which is order- and worker-count-dependent.
	PD        [][2]int
	Waves     []int // wave counts tried for Hanayo; nil → 1,2,4,8
	B         int   // micro-batches per replica
	MicroRows int
	// Workers bounds the candidate-measurement worker pool: 0 → one per
	// CPU (runtime.NumCPU()), 1 → serial. Any setting returns the
	// identical candidate ranking — measurements land in deterministic
	// slots before the final stable sort.
	Workers int
	// Prune enables the memtrace-first OOM front end (the paper's
	// decomposition of plan search into a cheap memory-feasibility check
	// ahead of the expensive timing model): every unique (scheme, P, B)
	// key replays memory first (~no timing model) and infeasible cells
	// skip sim.Run entirely, yet still appear in the ranking as OOM.
	// Feasible cells pay the replay on top of their one simulation, so
	// pruning wins whenever OOM cells are common — large models pressing
	// against device memory, exactly the regime the search targets.
	Prune bool
	// TopK, when positive, turns the exhaustive sweep into an exact
	// branch-and-bound search over the timing axis: cells are visited in
	// best-first order of their analytic throughput upper bound
	// (costmodel.LowerBound), a shared cutoff tracks the Kth-best fully
	// evaluated output row across the worker pool, cells whose bound
	// strictly loses to the cutoff are skipped outright, and the rest
	// simulate under sim.Runner.RunDeadline with a cutoff-derived clock
	// cap. The first TopK ranked candidates are bit-for-bit identical to
	// the exhaustive sweep's (ties included — pruning and abortion are
	// both strict, so cutoff ties always evaluate fully); later entries
	// may surface as Candidate.BoundPruned with a proven Bound instead of
	// an exact throughput. 0 keeps today's exhaustive, bit-for-bit
	// complete ranking. Bound-pruned evaluations are never published to
	// the Tuner's local or remote cache. Under sharding the cutoff is
	// shard-local, so every shard's top-K stays exact and MergeShards
	// reproduces the exhaustive top-K.
	TopK int

	// Faults applies one sim.FaultPlan to every candidate's timed
	// evaluation — the "-faultplan" sweep axis. Device/link degradations
	// reshape the ranking (a straggler cluster can flip the top-1 scheme);
	// a Fail event turns affected cells into Candidate.Failed verdicts.
	// The plan is validated against each candidate's P, so a plan
	// targeting devices beyond a cell's pipeline surfaces as that cell's
	// Err. The plan's fingerprint is folded into the cross-sweep cache
	// key, so faulty and fault-free sweeps never serve each other's
	// entries. Bound-and-prune (TopK) stays exact: fault factors are
	// restricted to (0, 1], which keeps the analytic bound a floor under
	// any plan.
	Faults *sim.FaultPlan

	// shardIndex/shardCount restrict a sweep to one deterministic slice of
	// the candidate grid — set via Shard, evaluated via AutoTuneShard,
	// recombined via MergeShards. shardCount <= 1 means the whole grid.
	shardIndex, shardCount int
}

// Shard returns a copy of the space restricted to the i-th of n disjoint
// slices of the candidate grid, for cross-process sweeps: n worker
// processes each run AutoTuneShard over Shard(0..n-1, n) of the SAME
// space against the SAME cluster and model, and MergeShards recombines
// their outputs into exactly the single-process AutoTune ranking.
//
// The partition is deterministic and defaults-stable: the grid is laid
// out exactly as AutoTune lays it out (after applying the same defaults
// for nil Schemes/Waves/PD), divided into units — one unit per regular
// (P, D)×scheme cell, plus one unit per (P, D) for the whole Hanayo
// wave group, which must stay together because only its best wave
// survives — and unit u belongs to shard u mod n. Shard(0, 1) is the
// whole grid; any i outside [0, n) panics.
func (s SearchSpace) Shard(i, n int) SearchSpace {
	if i < 0 || i >= n {
		// Checked before the n == 1 no-op: Shard(3, 1) is a mis-computed
		// assignment that would otherwise silently sweep the full grid and
		// duplicate candidates in a later merge.
		panic(fmt.Sprintf("core: Shard(%d, %d): index out of range", i, n))
	}
	if n == 1 {
		s.shardIndex, s.shardCount = 0, 0
		return s
	}
	s.shardIndex, s.shardCount = i, n
	return s
}

// DefaultSchemes returns the baseline set of §5.
func DefaultSchemes() []string { return []string{"gpipe", "dapple", "chimera-wave"} }

// withDefaults fills the nil-field defaults every sweep applies — the
// baseline schemes, the 1/2/4/8 wave ladder, power-of-two (P, D) divisor
// pairs of the cluster size, B=8 and MicroRows=1. sweepGrid normalizes
// through this, and Rerank normalizes with the identical call before
// matching previous candidates to grid rows, so the seeds always name
// cells of the grid actually swept.
func (s SearchSpace) withDefaults(cl *cluster.Cluster) SearchSpace {
	if s.Schemes == nil {
		s.Schemes = DefaultSchemes()
	}
	if s.Waves == nil {
		s.Waves = []int{1, 2, 4, 8}
	}
	if s.PD == nil {
		n := cl.N()
		for p := 2; p <= n; p *= 2 {
			if n%p == 0 {
				s.PD = append(s.PD, [2]int{p, n / p})
			}
		}
	}
	if s.B == 0 {
		s.B = 8
	}
	if s.MicroRows == 0 {
		s.MicroRows = 1
	}
	return s
}

// evaluator bundles the reusable executors one sweep worker drives: a
// sched.Generator for schedule compilation, a sim.Runner for timed
// evaluation, a memtrace.Replayer for the OOM front end, and the budget
// scratch they share. Reused across every key a worker measures — and,
// inside a Tuner, across sweeps — so the steady-state evaluation pipeline
// allocates only per-key outputs (cost tables, estimates), never per-run
// generator or executor state.
type evaluator struct {
	gen    *sched.Generator
	runner *sim.Runner
	replay *memtrace.Replayer
	budget []float64 // per-device activation-byte budgets (scratch)
}

func newEvaluator() *evaluator {
	return &evaluator{gen: sched.NewGenerator(), runner: sim.NewRunner(), replay: memtrace.NewReplayer()}
}

// evalSchedule measures one (scheme, P, B) key on this evaluator's
// reusable executors. The schedule is compiled in place: it belongs to the
// evaluator's Generator ("valid until the next Generate") and is consumed
// where it was built, so the returned evalShared must reference none of it
// — everything kept is copied into fresh storage, and the next key (on a
// pooled evaluator, the next sweep) overwrites the lists. Memory replay
// runs first when pruning (infeasible cells never reach sim.Run), then one
// timed simulation for the cells that fit, under an optional virtual-clock
// cap (deadline 0 → none): the bound-and-prune sweep's measurement path.
// The memtrace OOM front end runs uncapped — its verdicts stay complete,
// cacheable facts — and only the timing simulation is deadline-aborted.
func (ev *evaluator) evalSchedule(plan Plan, prune bool, deadline float64) (*evalShared, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	s, err := ev.gen.Generate(plan.Scheme, plan.P, plan.B)
	if err != nil {
		return nil, err
	}
	cl, model, rows := plan.Cluster, plan.Model, plan.MicroRows
	if prune {
		weights := memmodel.Weights(s, model)
		ev.budget = ev.budget[:0]
		overweight := false
		for d := 0; d < s.P; d++ {
			b := cl.MemBytes(d%cl.N())*memMargin - weights[d]
			if b < 0 {
				overweight = true
			}
			ev.budget = append(ev.budget, b)
		}
		if overweight {
			// Weights alone overflow a device: OOM before any execution.
			mem := &memmodel.Estimate{WeightBytes: weights, ActBytes: make([]float64, s.P)}
			return &evalShared{mem: mem, maxGB: mem.MaxGB(), pruned: true,
				splitBW: splitBackwardScheme(plan.Scheme)}, nil
		}
		mt, exceeded, err := ev.replay.RunBudget(s, model, rows, ev.budget)
		if err != nil {
			return nil, err
		}
		if exceeded {
			// The replay stopped at the violating forward; its partial
			// peaks already prove infeasibility (copied out of the
			// Replayer-owned result before the next replay reuses it).
			acts := make([]float64, s.P)
			copy(acts, mt.PeakBytes)
			mem := &memmodel.Estimate{WeightBytes: weights, ActBytes: acts}
			return &evalShared{mem: mem, maxGB: mem.MaxGB(), pruned: true,
				splitBW: splitBackwardScheme(plan.Scheme)}, nil
		}
		// Fits: fall through to the timing model.
	}
	return plan.simEvaluate(s, sim.DefaultOptions(), ev.runner, deadline)
}

// evalKey resolves one key through the cross-sweep cache (when serving
// under a Tuner) or measures it and publishes the compact entry for
// future sweeps. own is the worker's private evaluator on standalone
// sweeps and nil under a Tuner, where a pooled evaluator is checked out
// only after both cache tiers and the in-flight table miss — cache hits,
// flight followers and workers waiting on another builder's per-sweep
// Once never pin a pool slot. gk/hk are the task's cross-sweep key and
// its digest, computed exactly once per cell at grid layout (meaningful
// only under a Tuner) — one digest routes both cache tiers and the wire.
// sr is the sweep's batched remote window (nil without a remote tier or
// with NoPrefetch): when present, the sweep-start MultiGet has already
// probed every key of this grid, so a miss skips the per-key remote
// probe and fresh results queue for the end-of-sweep flush instead of
// paying one put round trip each.
func evalKey(plan Plan, own *evaluator, prune bool, t *Tuner, gk tunerKey, hk uint64, sr *sweepRemote) (*evalShared, error) {
	if t == nil {
		return own.evalSchedule(plan, prune, 0)
	}
	if ent, ok := t.cache.get(gk, hk); ok {
		return ent.toShared(), nil
	}
	if sr != nil {
		if ent, ok := sr.hits[hk]; ok {
			// Prefetched at sweep start (or pinned from a local hit that
			// the LRU has since evicted): reseed the cache and serve.
			t.cache.put(gk, hk, ent)
			return ent.toShared(), nil
		}
	}
	f, leader := t.join(gk)
	if !leader {
		// Another sweep is already measuring this key; wait for its
		// result instead of re-simulating (the computation is
		// deterministic, so its error is this caller's error too).
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		return f.ent.toShared(), nil
	}
	defer t.land(gk, f)
	// On the per-key path the leader probes the cross-process tier before
	// paying for a simulation: a hit published by another worker process
	// (a shard peer, or an earlier run) short-circuits exactly like a
	// local hit and is copied into the local cache for the next lookup.
	// Followers piggyback on this probe through the flight, so one sweep
	// issues at most one remote get per key. Under a sweepRemote the
	// sweep-start MultiGet already made this exact probe — repeating it
	// per key would pay back the round trips batching just saved.
	if sr == nil {
		if ent, ok := t.remoteGet(hk); ok {
			f.ent = ent
			t.cache.put(gk, hk, ent)
			return ent.toShared(), nil
		}
	}
	// Generation happens on the pooled evaluator's Generator, so the
	// checkout now covers the whole measurement (compile + replay + sim) —
	// schedule compilation is real work the admission control should bound.
	ev := t.checkout()
	defer t.checkin(ev)
	es, err := ev.evalSchedule(plan, prune, 0)
	if err != nil {
		f.err = err
		return nil, err
	}
	f.ent = entryFrom(es)
	t.cache.put(gk, hk, f.ent)
	if sr != nil {
		sr.publish(hk, f.ent)
	} else {
		t.remotePut(hk, f.ent)
	}
	return es, nil
}

// evalKeyBounded is evalKey for the branch-and-bound path (TopK > 0):
// the same cache tiers serve hits — every cache entry is a complete
// evaluation, so a hit is always exact — but misses measure under the
// deadline (0 → uncapped), and deadline-aborted results are published
// nowhere: not the local cache, not the remote tier, and the cross-sweep
// flight table is bypassed entirely (the abort cap depends on this
// sweep's cutoff and the cell's D, so a boundOnly verdict is not a
// reusable fact about the key, and a follower must not inherit one).
// Racing sweeps may therefore duplicate a bounded measurement, which
// only over-evaluates — complete results are deterministic, so whichever
// publication lands is the same entry.
func evalKeyBounded(plan Plan, own *evaluator, prune bool, t *Tuner, gk tunerKey, hk uint64, sr *sweepRemote, deadline float64) (*evalShared, error) {
	if t == nil {
		return own.evalSchedule(plan, prune, deadline)
	}
	if ent, ok := t.cache.get(gk, hk); ok {
		return ent.toShared(), nil
	}
	if sr != nil {
		if ent, ok := sr.hits[hk]; ok {
			t.cache.put(gk, hk, ent)
			return ent.toShared(), nil
		}
	} else if ent, ok := t.remoteGet(hk); ok {
		t.cache.put(gk, hk, ent)
		return ent.toShared(), nil
	}
	ev := t.checkout()
	defer t.checkin(ev)
	es, err := ev.evalSchedule(plan, prune, deadline)
	if err != nil || es.boundOnly {
		return es, err // proven-below-cutoff (or failed): not a cache entry
	}
	ent := entryFrom(es)
	t.cache.put(gk, hk, ent)
	if sr != nil {
		sr.publish(hk, ent)
	} else {
		t.remotePut(hk, ent)
	}
	return es, nil
}

// cutoffState is the branch-and-bound sweep's shared ranking cutoff: a
// proven floor on the Kth-best output-row total throughput, maintained
// across the worker pool. vals[slot] carries the best fully evaluated
// cell value of output row slot — wave groups collapse to one row and
// share one slot, because folding raw cell values into a Kth-best over
// *cells* would overstate the Kth-best *row* (a group contributes only
// its winner to the ranking) and wrongly prune cells that belong in the
// exact top K. Slot updates are monotone and always exact-or-below the
// row's true final value, so the published cutoff only rises and never
// passes the true Kth-best row value; skipping strictly below it is
// therefore exact, and worker races can only lower the cutoff a reader
// observes — over-evaluation, never mis-ranking.
type cutoffState struct {
	k      int
	bits   atomic.Uint64 // Float64bits of the cutoff (0 until k rows score)
	pruned atomic.Int64  // cells eliminated by the cutoff (skips + aborts)

	mu      sync.Mutex
	vals    []float64 // per output-row best fully evaluated value
	scratch []float64
}

func newCutoffState(k, slots int) *cutoffState {
	return &cutoffState{k: k, vals: make([]float64, slots), scratch: make([]float64, slots)}
}

// cutoff is the current proven floor on the Kth-best row value — one
// atomic load on the worker hot path. 0 disables pruning (fewer than k
// rows have fully evaluated members yet, or the grid has fewer than k
// rows at all).
func (c *cutoffState) cutoff() float64 {
	return math.Float64frombits(c.bits.Load())
}

// observe folds one fully evaluated cell value into its output row and
// republishes the Kth-largest row value. Non-positive values (OOM,
// error and empty cells) are no-ops — unevaluated rows hold 0, which
// keeps the cutoff at 0 until at least k rows carry real values.
func (c *cutoffState) observe(slot int, thr float64) {
	if thr <= 0 {
		return
	}
	c.mu.Lock()
	if thr > c.vals[slot] {
		c.vals[slot] = thr
		if len(c.vals) >= c.k {
			// Kth-largest by k max-scans over a scratch copy: the grid has
			// tens of rows and k is small, so this beats a heap.
			copy(c.scratch, c.vals)
			kth := 0.0
			for j := 0; j < c.k; j++ {
				best := 0
				for i := 1; i < len(c.scratch); i++ {
					if c.scratch[i] > c.scratch[best] {
						best = i
					}
				}
				kth = c.scratch[best]
				c.scratch[best] = math.Inf(-1)
			}
			c.bits.Store(math.Float64bits(kth))
		}
	}
	c.mu.Unlock()
}

// AutoTune sweeps the search space and returns all candidates sorted by
// throughput (best first). OOM candidates sort last — they appear in Fig 10
// as blank cells. Candidates are measured by a bounded worker pool of
// space.Workers goroutines sharing one evaluation memo, so identical action
// lists are compiled and simulated once per sweep; the ranking is
// independent of the worker count. Each worker owns a reusable
// Generator/Runner/Replayer set, and space.Prune routes every key
// through the memory-replay front end before the timing model.
// space.TopK > 0 trades the exhaustive tail for speed: the first TopK
// ranks stay exact and bit-for-bit identical while provably losing cells
// are bound-pruned (see SearchSpace.TopK and Candidate.BoundPruned).
func AutoTune(cl *cluster.Cluster, model nn.Config, space SearchSpace) []Candidate {
	return sweep(cl, model, space, nil)
}

// sweep is the shared AutoTune engine; t is nil for one-shot sweeps and
// the serving Tuner when evaluations should pull pooled evaluators and
// consult the cross-sweep cache.
func sweep(cl *cluster.Cluster, model nn.Config, space SearchSpace, t *Tuner) []Candidate {
	out := sweepGrid(cl, model, space, t, nil)
	sortCandidates(out)
	return out
}

// sortCandidates is the one ranking comparator: throughput descending,
// stable, so equal-throughput candidates keep grid order. MergeShards
// must apply the identical sort for shard merges to be bit-for-bit
// reproductions of the single-process ranking.
func sortCandidates(cands []Candidate) {
	sort.SliceStable(cands, func(i, j int) bool {
		return cands[i].Throughput > cands[j].Throughput
	})
}

// sweepGrid measures the (sharded slice of the) candidate grid and
// returns its candidates in grid order — (P, D) major, schemes then the
// wave-group winner within each — without the final ranking sort.
// warm (nil everywhere except Rerank) pre-loads the branch-and-bound
// cutoff with exact row values measured on this cluster before any
// worker starts, and receives the sweep's cell/prune statistics.
func sweepGrid(cl *cluster.Cluster, model nn.Config, space SearchSpace, t *Tuner, warm *warmStart) []Candidate {
	space = space.withDefaults(cl)
	workers := space.Workers
	if workers <= 0 {
		workers = goruntime.NumCPU()
	}

	// Lay out the candidate grid in deterministic order. wave tags the
	// Hanayo wave-sweep candidates of one (P, D) so only the best wave
	// survives, mirroring §5.3 ("we searched for the best wave number under
	// each parallelism configuration"). Sharded sweeps assign grid units —
	// each regular cell its own, the whole wave group of one (P, D) a
	// single one, so its internal best-of reduction never splits — round-
	// robin to shards and lay out only the owned units; MergeShards relies
	// on exactly this unit order and assignment to stitch shards back
	// together. The layout pass also computes each cell's sweep-constant
	// derivatives exactly once: the cross-sweep cache key and its digest
	// (previously hashed again per cold cell inside evalKey), the
	// output-row slot, and — for a branch-and-bound sweep — the analytic
	// throughput upper bound that orders and prunes the walk.
	var clusterFP uint64
	if t != nil {
		clusterFP = cl.Fingerprint() // sweep-constant: hash the matrices once
	}
	wl := costmodel.Workload{Model: model, MicroRows: space.MicroRows}
	unit := 0
	claim := func() bool { // does this shard own the next grid unit?
		own := space.shardCount <= 1 || unit%space.shardCount == space.shardIndex
		unit++
		return own
	}
	cache := newSweepCache()
	var tasks []sweepTask
	slots := 0 // output rows owned by this shard (== grid units owned)
	layout := func(plan Plan, pd, waves int) {
		tk := sweepTask{plan: plan, pd: pd, waves: waves, slot: slots, ub: math.Inf(1)}
		if t != nil {
			tk.gk = keyFor(plan, space.Prune, clusterFP)
			tk.hk = tk.gk.hash()
		}
		if space.TopK > 0 {
			// A bound error (a shape the scheme rejects) leaves ub at +Inf:
			// the cell is never pruned, so the real generation error
			// surfaces exactly as the exhaustive sweep reports it.
			if lb, err := costmodel.LowerBound(wl, cl, plan.P, plan.D, plan.B, plan.Scheme); err == nil && lb > 0 {
				tk.ub = float64(plan.D*plan.B*plan.MicroRows) / lb
			}
		}
		tasks = append(tasks, tk)
	}
	// Formatted once per sweep, not once per (P, D): a warm sweep does
	// little besides this layout.
	waveNames := make([]string, len(space.Waves))
	for i, w := range space.Waves {
		waveNames[i] = "hanayo-w" + strconv.Itoa(w)
	}
	for pi, pd := range space.PD {
		base := Plan{Cluster: cl, Model: model, P: pd[0], D: pd[1],
			B: space.B, MicroRows: space.MicroRows, Faults: space.Faults}
		for _, scheme := range space.Schemes {
			if !claim() {
				continue
			}
			plan := base
			plan.Scheme = scheme
			layout(plan, pi, 0)
			slots++
		}
		if len(space.Waves) > 0 && claim() {
			for i, w := range space.Waves {
				plan := base
				plan.Scheme = waveNames[i]
				layout(plan, pi, w)
			}
			slots++
		}
	}

	// With a remote tier, resolve the whole shard against it up front:
	// the task layout above IS the deterministic key enumeration, so one
	// MultiGet replaces the per-key probes every worker would otherwise
	// issue at its miss — O(cells) round trips become one prefetch here
	// plus one flush after the pool drains, whatever the grid size.
	var sr *sweepRemote
	if t != nil && t.remote != nil && !t.noPrefetch {
		sr = &sweepRemote{t: t, hits: map[uint64]tunerEntry{}}
		seen := make(map[uint64]struct{}, len(tasks))
		var gks []tunerKey
		var hks []uint64
		for _, tk := range tasks {
			if _, dup := seen[tk.hk]; dup {
				continue
			}
			seen[tk.hk] = struct{}{}
			if ent, ok := t.cache.get(tk.gk, tk.hk); ok {
				// Already local: pin it for the sweep so an eviction
				// between now and the worker's lookup cannot force a
				// re-simulation.
				sr.hits[tk.hk] = ent
				continue
			}
			gks = append(gks, tk.gk)
			hks = append(hks, tk.hk)
		}
		sr.prefetch(gks, hks)
	}

	// Measure every candidate concurrently into its deterministic slot:
	// `workers` goroutines pull task indices from a shared feed. A
	// standalone sweep gives each worker its own evaluator for the sweep's
	// lifetime; under a Tuner, evalKey checks one out of the bounded
	// shared pool only while actually measuring, so concurrent sweeps
	// contend for (and reuse) the same warmed arenas without cache hits
	// occupying pool slots. A branch-and-bound sweep (TopK > 0) feeds the
	// cells best-first — descending analytic upper bound — so the true
	// winners tend to evaluate first and the cutoff tightens as early as
	// possible. An exhaustive sweep feeds the largest schedules first: a
	// fresh evaluator then sizes every arena once, on its first key,
	// instead of regrowing them up the P × wave ladder, and a wider pool
	// starts its longest cells first. Everything still lands in grid-order
	// measured slots, so the reduction below is order-independent.
	var cut *cutoffState
	feed := make(chan int, len(tasks))
	order := make([]int, len(tasks))
	for i := range order {
		order[i] = i
	}
	if space.TopK > 0 {
		cut = newCutoffState(space.TopK, slots)
		if warm != nil {
			// Seed the cutoff before any worker runs: each seed is the exact
			// full evaluation of one cell of this grid (same B, MicroRows,
			// Faults, Prune) measured on this cluster, so observing it keeps
			// every slot exact-or-below its row's true final value — the
			// invariant the cutoff's soundness proof rests on. The sweep
			// starts with the cutoff already at the Kth-best seeded value
			// instead of discovering it cell by cell. The seed's complete
			// evaluation is pre-published into the sweep's result memo so
			// evalBounded serves the seeded cell exact from peekFull — a
			// seeded cell must never be re-judged against a cutoff that its
			// own value produced (see warmSeed).
			for _, sd := range warm.seeds {
				for j := range tasks {
					tk := &tasks[j]
					if tk.plan.P == sd.p && tk.plan.D == sd.d && (tk.waves > 0) == sd.wave &&
						(sd.wave || tk.plan.Scheme == sd.scheme) {
						cache.publishFull(schedKey{sd.scheme, sd.p, space.B}, sd.es, nil)
						cut.observe(tk.slot, sd.thr)
						break
					}
				}
			}
		}
		slices.SortStableFunc(order, func(a, b int) int { return cmp.Compare(tasks[b].ub, tasks[a].ub) })
	} else {
		slices.SortStableFunc(order, func(a, b int) int { return tasks[b].size() - tasks[a].size() })
	}
	for _, i := range order {
		feed <- i
	}
	close(feed)
	measured := make([]Candidate, len(tasks))
	var wg sync.WaitGroup
	// A pool wider than the shard's cell count would only build idle
	// evaluators.
	workers = min(workers, len(tasks))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var own *evaluator
			if t == nil {
				own = newEvaluator()
			}
			for i := range feed {
				tk := &tasks[i]
				if space.TopK > 0 {
					measured[i] = evalBounded(tk, cache, own, space.Prune, t, sr, cut)
					continue
				}
				plan := tk.plan
				es, err := cache.evalFor(schedKey{plan.Scheme, plan.P, plan.B},
					func() (*evalShared, error) { return evalKey(plan, own, space.Prune, t, tk.gk, tk.hk, sr) })
				measured[i] = candidateFrom(plan, es, err)
			}
		}()
	}
	wg.Wait()
	if sr != nil {
		sr.flush()
	}
	if warm != nil && warm.stats != nil {
		warm.stats.Cells = len(tasks)
		warm.stats.Rows = slots
		if cut != nil {
			warm.stats.Pruned = cut.pruned.Load()
		}
	}

	// Reduce in grid order, exactly as the serial sweep: per (P, D) the
	// regular candidates pass through, then the wave group contributes its
	// best wave (first maximum wins). A pruned wave whose proven bound
	// exceeds the best fully evaluated wave makes the whole row
	// BoundPruned: the row's true maximum might hide in that pruned wave —
	// but the bound is below the cutoff, so the row provably cannot rank
	// in the top K, and the proven bound is surfaced instead of a
	// potentially-wrong winner. (When the row DOES rank top-K, every bound
	// below the cutoff is below the winner too, so the flag never fires
	// and the winner is exact.)
	var out []Candidate
	i := 0
	for pi := range space.PD {
		for ; i < len(tasks) && tasks[i].pd == pi && tasks[i].waves == 0; i++ {
			out = append(out, measured[i])
		}
		var bestWave *Candidate
		maxBound := 0.0
		for ; i < len(tasks) && tasks[i].pd == pi; i++ {
			if c := measured[i]; c.BoundPruned && c.Bound > maxBound {
				maxBound = c.Bound
			}
			if bestWave == nil || measured[i].Throughput > bestWave.Throughput {
				cc := measured[i]
				bestWave = &cc
			}
		}
		if bestWave != nil {
			if maxBound > bestWave.Throughput {
				bestWave.BoundPruned = true
				bestWave.Bound = maxBound
			}
			out = append(out, *bestWave)
		}
	}

	return out
}

// sweepTask is one grid cell of a sweep with its layout-time derivatives.
type sweepTask struct {
	plan  Plan
	pd    int // index into space.PD
	waves int // wave count of a cell of the per-(P,D) Hanayo wave sweep; 0 for a Schemes cell
	slot  int // output-row index (wave groups share one row)
	// ub is the proven total-throughput upper bound (D·B·MicroRows over
	// costmodel.LowerBound) steering a branch-and-bound sweep; +Inf when
	// TopK == 0 or the bound is unavailable for this cell's shape.
	ub float64
	// gk/hk are the cross-sweep cache key and its stable digest, computed
	// once per cell per sweep (valid only under a Tuner).
	gk tunerKey
	hk uint64
}

// size is the cell's schedule size in compute tasks, 2·B·S, in closed form
// from the integers the layout holds — never parsed out of a scheme name:
// S = 2·W·P for a wave cell, P for a Schemes cell. That undercounts the
// multi-chunk baselines (chimera-wave, interleaved), which costs nothing
// but ordering quality: size only steers the exhaustive feed order.
func (tk *sweepTask) size() int {
	s := tk.plan.P
	if tk.waves > 0 {
		s *= 2 * tk.waves
	}
	return 2 * tk.plan.B * s
}

// evalBounded measures one cell of a branch-and-bound sweep (TopK > 0):
// a sweep-local complete result is served as-is, a cell whose analytic
// bound strictly loses to the cutoff is skipped outright, and everything
// else evaluates under the cutoff-derived virtual-clock cap — feeding
// every complete row value back into the cutoff. The cutoff is read once
// per cell; it can only have risen by evaluation time, so a stale read
// merely over-evaluates.
func evalBounded(tk *sweepTask, cache *sweepCache, own *evaluator, prune bool, t *Tuner, sr *sweepRemote, cut *cutoffState) Candidate {
	plan := tk.plan
	k := schedKey{plan.Scheme, plan.P, plan.B}
	if es, err, ok := cache.peekFull(k); ok {
		c := candidateFrom(plan, es, err)
		cut.observe(tk.slot, c.Throughput)
		return c
	}
	co := cut.cutoff()
	if co > 0 && tk.ub < co {
		// Provably below at least TopK fully evaluated rows — strictly, so
		// a tie with the cutoff still evaluates and tie order survives.
		cut.pruned.Add(1)
		return Candidate{Plan: plan, BoundPruned: true, Bound: tk.ub}
	}
	var deadline float64
	if co > 0 {
		// A run whose per-replica makespan passes this cap scores total
		// throughput strictly under the cutoff; RunDeadline's abort is
		// strict too, so a run landing exactly on the cap completes.
		deadline = float64(plan.D*plan.B*plan.MicroRows) / co
	}
	es, err := evalKeyBounded(plan, own, prune, t, tk.gk, tk.hk, sr, deadline)
	if err == nil && es.boundOnly {
		cut.pruned.Add(1)
		return Candidate{Plan: plan, BoundPruned: true, Bound: es.perReplica * float64(plan.D)}
	}
	cache.publishFull(k, es, err)
	c := candidateFrom(plan, es, err)
	cut.observe(tk.slot, c.Throughput)
	return c
}

// AutoTuneShard evaluates one shard's slice of the candidate grid —
// space must come from SearchSpace.Shard — and returns its candidates in
// grid order, unsorted: the form MergeShards stitches back together.
// Evaluation is identical to AutoTune's (same caches, same pruning, same
// worker pool), only the grid is restricted, so merging every shard of a
// partition reproduces the single-process ranking bit for bit.
func AutoTuneShard(cl *cluster.Cluster, model nn.Config, space SearchSpace) []Candidate {
	return sweepGrid(cl, model, space, nil, nil)
}

// MergeShards recombines the grid-order outputs of AutoTuneShard into
// the full AutoTune ranking. parts[i] must be the output of shard i of a
// len(parts)-way partition of one space (the same cluster, model and
// space on every worker). Because every grid unit yields exactly one
// candidate and unit u belongs to shard u mod n, interleaving the parts
// in unit order reconstructs the exact grid-order candidate list of the
// single-process sweep; applying the identical stable sort then yields a
// bit-for-bit identical ranking — including the tie order, which the
// stable sort resolves by grid position.
func MergeShards(parts ...[]Candidate) []Candidate {
	n := len(parts)
	total := 0
	for _, p := range parts {
		total += len(p)
	}
	out := make([]Candidate, 0, total)
	next := make([]int, n)
	for u := 0; len(out) < total; u++ {
		if s := u % n; next[s] < len(parts[s]) {
			out = append(out, parts[s][next[s]])
			next[s]++
		}
	}
	sortCandidates(out)
	return out
}

// SimRuns reports the process-wide count of discrete-event simulations
// issued through plan evaluation. It is the observability hook behind the
// cache-effectiveness guarantees: a repeated sweep against a warm Tuner —
// or a sweep whose keys were all published to the remote tier by earlier
// processes — must not advance it at all. Tests and cmd/hanayo-tuned
// report deltas of this counter.
func SimRuns() int64 { return simRuns.Load() }

// candidateFrom scales one key's shared evaluation to a candidate plan.
func candidateFrom(plan Plan, es *evalShared, err error) Candidate {
	c := Candidate{Plan: plan}
	if err != nil {
		c.Err = err
		return c
	}
	if es.boundOnly {
		// Defensive: evalBounded intercepts these before they reach a
		// candidate slot; a boundOnly result must never masquerade as an
		// exact zero-throughput measurement.
		c.BoundPruned = true
		c.Bound = es.perReplica * float64(plan.D)
		return c
	}
	if es.failed {
		// Checked before the fits verdict: a failed run carries no memory
		// estimate, so falling through would misreport it as OOM.
		c.Failed = true
		c.FailedDevice = es.failedDev
		c.FailTimeS = es.failTime
		c.RecoveryS = es.recovery
		return c
	}
	c.PeakGB = es.maxGB
	c.Pruned = es.pruned
	if !es.fits {
		c.OOM = true
		return c
	}
	c.Throughput = es.perReplica * float64(plan.D)
	return c
}

// Best returns the highest-throughput non-OOM candidate, if any.
func Best(cands []Candidate) (Candidate, bool) {
	for _, c := range cands {
		if !c.OOM && c.Err == nil && c.Throughput > 0 {
			return c, true
		}
	}
	return Candidate{}, false
}
