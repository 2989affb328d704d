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
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/cachewire"
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

// keyMemo is one sweep's memo entry for a (scheme, P, B) key, shared by
// every cell of the grid that names the key. mu serialises the key's
// builders — a second worker reaching the key waits for the first instead
// of measuring beside it — and only COMPLETE results are stored: full
// simulations, memtrace OOM verdicts and deterministic errors, all of them
// D-invariant, so a complete result is built exactly once per sweep. A
// deadline-aborted builder stores nothing (its abort cap depends on the
// observing cell's D and the cutoff it read, so the verdict is no fact
// about the key) and the next waiter measures under its own deadline. It
// holds evaluations only — a key's schedule lives on the measuring
// evaluator's Generator and is gone when the measurement returns; es lives
// in the sweep's memo slab. hit marks a cache entry prefetch wrote into es:
// not yet done (done exempts a cell from the bound skip, and a cached key
// stays as prunable as an uncached one), resolve completes the memo with it.
type keyMemo struct {
	mu   sync.Mutex
	done atomic.Bool // set after es/err: a lock-free "already complete?" for the skip test
	hit  bool
	es   evalShared
	err  error
}

// memMargin is the fraction of device HBM an evaluation may claim — the
// standard 5% framework-reserve headroom applied by every feasibility
// check (Plan.Fits, the sweep's OOM cells, the pruning budgets).
const memMargin = 0.95

// evalShared is the D-invariant slice of one evaluation: everything a
// candidate needs except the ×D throughput scaling.
type evalShared struct {
	sim *sim.Result      // Plan.Evaluate's path only
	mt  *memtrace.Result // AnalyticOnly path only
	// mem is the fresh per-device estimate Plan.Evaluate returns, and nil
	// everywhere else: a sweep judges memory on its evaluator's own Estimate
	// and keeps only the verdict, maxGB and fits.
	mem        *memmodel.Estimate
	fits       bool
	pruned     bool    // OOM decided by the memtrace front end; no sim ran
	maxGB      float64 // peak per-device footprint (the judged estimate's MaxGB)
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
		es := &evalShared{mt: mt, mem: memmodel.ForSchedule(s, p.Model, p.MicroRows, mt.PeakActs),
			splitBW: s.Split()}
		es.judge(es.mem, p.Cluster)
		return es, nil
	}
	es, err := p.simEvaluate(s, opt.Sim, nil, 0)
	if err != nil {
		return nil, err
	}
	return &es, nil
}

// judge records the memory verdict of estimate mem on cluster cl: its peak
// per-device footprint and whether it fits with the standard headroom.
func (es *evalShared) judge(mem *memmodel.Estimate, cl *cluster.Cluster) {
	es.maxGB, es.fits = mem.MaxGB(), memmodel.FitsCluster(mem, cl, memMargin)
}

// simEvaluate is the one implementation of the timed-evaluation recipe:
// one simulation of schedule s against the plan's cluster cost model,
// yielding the memory estimate, the feasibility verdict and the
// per-replica throughput together. ev == nil runs a fresh sim.Run and
// retains its Result and a fresh memory estimate in the evalShared (the
// Plan.Evaluate path); a sweep's evaluator reuses its Runner's arenas and
// judges memory on its own Estimate, keeping nothing either owns — the
// next key overwrites both. deadline > 0 (which requires an evaluator —
// the bound-and-prune sweep path) caps the virtual clock: an aborted run
// returns a boundOnly evalShared whose perReplica is the proven
// per-replica throughput upper bound, counting toward SimRuns like any
// simulation it actually started.
func (p Plan) simEvaluate(s *sched.Schedule, opt sim.Options, ev *evaluator, deadline float64) (evalShared, error) {
	cost, err := costmodel.New(costmodel.Workload{Model: p.Model, MicroRows: p.MicroRows}, p.Cluster, s)
	if err != nil {
		return evalShared{}, err
	}
	simRuns.Add(1)
	var r *sim.Result
	switch {
	case ev == nil:
		r, err = sim.RunFaults(s, cost, opt, p.Faults)
	case deadline > 0:
		var exceeded bool
		r, exceeded, err = ev.runner.RunFaultsDeadline(s, cost, opt, p.Faults, deadline)
		if err == nil && exceeded {
			return evalShared{boundOnly: true,
				perReplica: float64(p.B*p.MicroRows) / r.Makespan}, nil
		}
	default:
		r, err = ev.runner.RunFaults(s, cost, opt, p.Faults)
	}
	if err != nil {
		return evalShared{}, err
	}
	es := evalShared{splitBW: s.Split()}
	if r.Failed {
		// The fault plan killed a device: a deterministic infeasible
		// verdict with the sim's recovery diagnostic — no memory estimate
		// or throughput exists for the aborted prefix.
		es.failed, es.failedDev, es.failTime, es.recovery = true, r.FailedDevice, r.FailTime, r.Recovery
		return es, nil
	}
	es.perReplica = sim.Throughput(r, p.B*p.MicroRows)
	if ev == nil {
		// Fresh single-use result and estimate: safe to retain.
		es.sim, es.mem = r, memmodel.ForSchedule(s, p.Model, p.MicroRows, r.PeakActs)
		es.judge(es.mem, p.Cluster)
	} else {
		memmodel.ForScheduleInto(&ev.mem, s, p.Model, p.MicroRows, r.PeakActs, memmodel.Options{})
		es.judge(&ev.mem, p.Cluster)
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
	// per-replica makespan is D-independent — while validity (P·D ≤ N) is
	// checked per cell, so one P may appear under any mix of D values.
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
// survives — and cut into n contiguous unit ranges of near-equal work,
// so the slowest worker does not set the distributed round. A unit weighs
// the compute tasks its cells compile and simulate (sched.Scheme.ComputeTasks),
// W is the grid's total, and boundary k is the unit edge whose prefix
// weight is nearest k·W/n, the earliest on a tie. No shard exceeds W/n
// plus the heaviest unit; with more shards than units some are empty.
// Shard(0, 1) is the whole grid; any i outside [0, n) panics.
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
// pairs of the cluster size, B=8 and MicroRows=1. enumerate normalizes
// through this, so every stage sees the grid actually swept.
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
// evaluation, a memtrace.Replayer for the OOM front end, and the scratch
// they share: the Estimate every key's memory verdict is judged on and the
// replay's budgets. Reused across every key a worker measures — and,
// inside a Tuner, across sweeps — so the steady-state evaluation pipeline
// allocates per key only its cost model and the shape a Generator meets
// for the first time, never per-run generator, executor or estimate state.
type evaluator struct {
	gen    *sched.Generator
	runner *sim.Runner
	replay *memtrace.Replayer
	mem    memmodel.Estimate // the key being judged (scratch)
	budget []float64         // per-device activation-byte budgets (scratch)
}

func newEvaluator() *evaluator {
	return &evaluator{gen: sched.NewGenerator(), runner: sim.NewRunner(), replay: memtrace.NewReplayer()}
}

// evalPool is a bounded set of evaluators: a semaphore caps the
// measurements in flight at the pool's width, blocking checkout while every
// slot is taken. Evaluators are built on first checkout and reused last in,
// first out, so a sweep that measures nothing builds none and a serial
// caller keeps reusing its one warm evaluator instead of cycling the pool.
type evalPool struct {
	sem  chan struct{} // one token per evaluator checked out
	mu   sync.Mutex
	free []*evaluator // built and idle, most recently checked in last
}

func (p *evalPool) checkout() *evaluator {
	p.sem <- struct{}{}
	p.mu.Lock()
	defer p.mu.Unlock()
	if n := len(p.free); n > 0 {
		ev := p.free[n-1]
		p.free = p.free[:n-1]
		return ev
	}
	return newEvaluator()
}

func (p *evalPool) checkin(ev *evaluator) {
	p.mu.Lock()
	p.free = append(p.free, ev)
	p.mu.Unlock()
	<-p.sem
}

// evalSchedule measures one (scheme, P, B) key on this evaluator's
// reusable executors. The schedule is compiled in place: it belongs to the
// evaluator's Generator ("valid until the next Generate") and is consumed
// where it was built, so the returned evalShared references none of it —
// nor the evaluator's Estimate — and the next key (on a pooled evaluator,
// the next sweep) overwrites the lists and the estimate. Memory replay
// runs first when pruning (infeasible cells never reach sim.Run), then one
// timed simulation for the cells that fit, under an optional virtual-clock
// cap (deadline 0 → none): the bound-and-prune sweep's measurement path.
// The memtrace OOM front end runs uncapped — its verdicts stay complete,
// cacheable facts — and only the timing simulation is deadline-aborted.
// The plan must already be valid (the sweep validates each cell at
// enumerate): everything measured here is a fact about the key, and a
// cell's P·D never is.
func (ev *evaluator) evalSchedule(plan Plan, prune bool, deadline float64) (evalShared, error) {
	s, err := ev.gen.Generate(plan.Scheme, plan.P, plan.B)
	if err != nil {
		return evalShared{}, err
	}
	cl, model, rows := plan.Cluster, plan.Model, plan.MicroRows
	if prune {
		mem := &ev.mem
		mem.WeightBytes = memmodel.WeightsInto(mem.WeightBytes, s, model, memmodel.Options{})
		ev.budget = ev.budget[:0]
		overweight := false
		for d := 0; d < s.P; d++ {
			b := cl.MemBytes(d%cl.N())*memMargin - mem.WeightBytes[d]
			if b < 0 {
				overweight = true
			}
			ev.budget = append(ev.budget, b)
		}
		mem.ActBytes = mem.ActBytes[:0]
		if overweight {
			// Weights alone overflow a device: OOM before any execution.
			mem.ActBytes = append(mem.ActBytes, make([]float64, s.P)...)
		} else {
			mt, exceeded, err := ev.replay.RunBudget(s, model, rows, ev.budget)
			if err != nil {
				return evalShared{}, err
			}
			if !exceeded {
				// Fits: on to the timing model.
				return plan.simEvaluate(s, sim.DefaultOptions(), ev, deadline)
			}
			// The replay stopped at the violating forward; its partial
			// peaks already prove infeasibility.
			mem.ActBytes = append(mem.ActBytes, mt.PeakBytes...)
		}
		return evalShared{maxGB: mem.MaxGB(), pruned: true, splitBW: s.Split()}, nil
	}
	return plan.simEvaluate(s, sim.DefaultOptions(), ev, deadline)
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
// keeps the cutoff at 0 until at least k rows carry real values — and so
// is everything at k = 0: the exhaustive sweep is the bounded walk whose
// cutoff never leaves 0, so it skips nothing and caps nothing.
func (c *cutoffState) observe(slot int, thr float64) {
	if thr <= 0 || c.k == 0 {
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
// independent of the worker count. A measuring worker holds one reusable
// Generator/Runner/Replayer set from a pool no wider than the sweep, and
// space.Prune routes every key through the memory-replay front end before
// the timing model.
// space.TopK > 0 trades the exhaustive tail for speed: the first TopK
// ranks stay exact and bit-for-bit identical while provably losing cells
// are bound-pruned (see SearchSpace.TopK and Candidate.BoundPruned).
func AutoTune(cl *cluster.Cluster, model nn.Config, space SearchSpace) []Candidate {
	return sweep(cl, model, space, nil)
}

// sweep is the shared AutoTune engine: the grid's candidates, ranked. t is
// nil for one-shot sweeps and the serving Tuner otherwise.
func sweep(cl *cluster.Cluster, model nn.Config, space SearchSpace, t *Tuner) []Candidate {
	out := sweepGrid(cl, model, space, t)
	sortCandidates(out)
	return out
}

// sortCandidates is the one ranking comparator: throughput descending,
// stable, so equal-throughput candidates keep grid order. MergeShards
// must apply the identical sort for shard merges to be bit-for-bit
// reproductions of the single-process ranking.
func sortCandidates(cands []Candidate) {
	slices.SortStableFunc(cands, func(a, b Candidate) int { return cmp.Compare(b.Throughput, a.Throughput) })
}

// sweepGrid measures the (sharded slice of the) candidate grid and
// returns its candidates in grid order — (P, D) major, schemes then the
// wave-group winner within each — without the final ranking sort.
func sweepGrid(cl *cluster.Cluster, model nn.Config, space SearchSpace, t *Tuner) []Candidate {
	return enumerate(cl, model, space, t).run(cl, model)
}

// run is the four stages after enumerate, in order: every sweep mode —
// standalone or Tuner, exhaustive or TopK, shard or Rerank — is this walk.
func (s *gridSweep) run(cl *cluster.Cluster, model nn.Config) []Candidate {
	s.bound(cl, model)
	s.prefetch()
	s.evaluate()
	return s.reduce()
}

// gridSweep is one sweep in flight — the state the stages share: enumerate
// lays out cells, bound gives each its analytic ceiling, prefetch and order
// prepare the walk, evaluate drives the worker pool over it through
// resolve, reduce folds the measured cells into output rows.
type gridSweep struct {
	space   SearchSpace // defaults applied
	t       *Tuner      // nil on a standalone sweep: no LRU, flight table or remote tier
	workers int
	// pool bounds the measurements in flight: the Tuner's shared pool, or a
	// sweep-local one no wider than min(workers, cells). A worker holds an
	// evaluator only while it measures — memo hits, cache hits and flight
	// followers never pin one.
	pool *evalPool

	cells    []sweepCell
	slots    int         // output rows owned by this shard (== grid units owned)
	measured []Candidate // cell i's outcome, written by whichever worker measures it
	cut      *cutoffState

	// Fresh evaluations queue under pubMu until reduce flushes them to the
	// Tuner's remote tier in one MultiPut — with prefetch's one MultiGet,
	// how a shard costs O(1) round trips instead of O(cells). Empty without
	// a remote tier.
	pubMu   sync.Mutex
	pubKeys []uint64
	pubEnts []cachewire.Entry
}

// sweepCell is one grid cell of a sweep with its layout-time derivatives.
type sweepCell struct {
	plan  Plan
	waves int // wave count of a cell of the per-(P,D) Hanayo wave sweep; 0 for a Schemes cell
	slot  int // output-row index (wave groups share one row): the cell's grid unit
	// size is the cell's work in compute tasks (sched.Scheme.ComputeTasks; 0
	// for a scheme Generate rejects, whose error costs nothing to measure). It
	// orders the exhaustive feed and weighs the shard cut.
	size int
	// memo is the sweep's entry for the cell's (scheme, P, B) key, shared
	// with every cell naming the key; first marks the cell that created it
	// (the deduped key set is the first cells). Nil on an invalid cell,
	// whose measured slot enumerate already filled: bound and order skip it.
	memo  *keyMemo
	first bool
	// gk/hk are the cross-sweep cache key and its stable digest (the
	// remote tier's wire key), computed once per cell per sweep (valid
	// only under a Tuner).
	gk tunerKey
	hk uint64
	// ub is the proven total-throughput upper bound (D·B·MicroRows over
	// costmodel.LowerBound) steering a branch-and-bound sweep; +Inf when
	// the bound is unavailable for this cell's shape, unset at TopK == 0.
	ub float64
}

// enumerate lays out the candidate grid in deterministic order and
// computes each cell's sweep-constant derivatives exactly once: its size,
// its validity, its key memo, and under a Tuner the cross-sweep cache key
// and digest. waves tags the Hanayo wave-sweep candidates of one (P, D) so
// only the best wave survives, mirroring §5.3 ("we searched for the best
// wave number under each parallelism configuration"). A sharded sweep lays
// out the whole grid, then keeps only its own contiguous range of grid
// units (keepShard) — each regular cell is a unit, the whole wave group of
// one (P, D) a single one, so its internal best-of reduction never splits.
// Shard i's range follows shard i−1's, which is what lets MergeShards
// stitch shards back together by concatenation.
//
// A cell's validity is the cell's, not the key's: Plan.Validate runs here,
// per cell, and an invalid one (P·D beyond the cluster, a fault plan aimed
// past its P) lands as Candidate{Plan, Err} in its own slot. It gets no
// memo, key or bound, so it never reaches a key memo, the LRU (whose key
// has no D), a flight or the wire — a grid may list one P under a feasible
// and an infeasible D and each cell keeps its own verdict.
func enumerate(cl *cluster.Cluster, model nn.Config, space SearchSpace, t *Tuner) *gridSweep {
	space = space.withDefaults(cl)
	s := &gridSweep{space: space, t: t, workers: space.Workers,
		cells: make([]sweepCell, 0, len(space.PD)*(len(space.Schemes)+len(space.Waves)))}
	if s.workers <= 0 {
		s.workers = goruntime.NumCPU()
	}
	// Formatted once per sweep, not once per (P, D): a warm sweep does
	// little besides this layout.
	waveNames := make([]string, len(space.Waves))
	for i, w := range space.Waves {
		waveNames[i] = "hanayo-w" + strconv.Itoa(w)
	}
	cell := func(plan Plan, waves int) sweepCell {
		c := sweepCell{plan: plan, waves: waves, slot: s.slots}
		if sc, err := sched.ParseScheme(plan.Scheme); err == nil {
			c.size = sc.ComputeTasks(plan.P, plan.B)
		}
		return c
	}
	for _, pd := range space.PD {
		plan := Plan{Cluster: cl, Model: model, P: pd[0], D: pd[1],
			B: space.B, MicroRows: space.MicroRows, Faults: space.Faults}
		for _, scheme := range space.Schemes {
			plan.Scheme = scheme
			s.cells = append(s.cells, cell(plan, 0))
			s.slots++
		}
		if len(space.Waves) > 0 {
			for i, w := range space.Waves {
				plan.Scheme = waveNames[i]
				s.cells = append(s.cells, cell(plan, w))
			}
			s.slots++
		}
	}
	if space.shardCount > 1 {
		s.keepShard(space.shardIndex, space.shardCount)
	}

	var clusterFP uint64
	if t != nil {
		clusterFP = cl.Fingerprint() // sweep-constant: hash the matrices once
	}
	s.measured = make([]Candidate, len(s.cells))
	slab := make([]keyMemo, len(s.cells)) // every key's memo in one allocation
	memos := make(map[schedKey]*keyMemo, len(s.cells))
	live := 0
	for i := range s.cells {
		c := &s.cells[i]
		if err := c.plan.Validate(); err != nil {
			s.measured[i] = Candidate{Plan: c.plan, Err: err}
			continue
		}
		live++
		k := schedKey{c.plan.Scheme, c.plan.P, c.plan.B}
		if c.memo = memos[k]; c.memo == nil {
			c.memo, c.first = &slab[len(memos)], true
			memos[k] = c.memo
		}
		if t != nil {
			c.gk = keyFor(c.plan, space.Prune, clusterFP)
			c.hk = c.gk.hash()
		}
	}
	if t != nil {
		s.pool = &t.pool
	} else {
		s.pool = &evalPool{sem: make(chan struct{}, min(s.workers, live))}
	}
	s.cut = newCutoffState(space.TopK, s.slots)
	return s
}

// keepShard narrows the laid-out grid to shard i of n: the contiguous
// range of grid units (output slots) [edge(i), edge(i+1)), where boundary k
// is the unit edge whose prefix weight is nearest k·W/n, the earliest on a
// tie, and the last boundary is the grid's end. Boundaries never decrease in k,
// so the n ranges tile the grid in shard order — some empty when n exceeds
// the units — and each boundary lies within half a unit of its target, so
// no shard exceeds W/n plus the heaviest unit.
func (s *gridSweep) keepShard(i, n int) {
	prefix := make([]int, s.slots+1) // prefix[u]: the weight of units 0..u-1
	for _, c := range s.cells {
		prefix[c.slot+1] += c.size
	}
	for u := 1; u <= s.slots; u++ {
		prefix[u] += prefix[u-1]
	}
	edge := func(k int) int {
		if k == n {
			return s.slots
		}
		// Compare n·prefix[e] with k·W: the nearest edge in exact integers.
		dist := func(e int) int { d := n*prefix[e] - k*prefix[s.slots]; return max(d, -d) }
		best := 0
		for e := 1; e <= s.slots; e++ {
			if dist(e) < dist(best) {
				best = e
			}
		}
		return best
	}
	lo, hi := edge(i), edge(i+1)
	first := 0
	for first < len(s.cells) && s.cells[first].slot < lo {
		first++
	}
	end := first
	for end < len(s.cells) && s.cells[end].slot < hi {
		end++
	}
	s.cells, s.slots = s.cells[first:end], hi-lo
	for j := range s.cells {
		s.cells[j].slot -= lo
	}
}

// bound computes every live cell's analytic throughput upper bound — the
// figure that orders a branch-and-bound walk and decides its skips; an
// exhaustive sweep (TopK == 0) needs none. A bound error (a shape the
// scheme rejects) leaves ub at +Inf: the cell is never pruned, so the real
// generation error surfaces exactly as the exhaustive sweep reports it.
func (s *gridSweep) bound(cl *cluster.Cluster, model nn.Config) {
	if s.space.TopK <= 0 {
		return
	}
	wl := costmodel.Workload{Model: model, MicroRows: s.space.MicroRows}
	for i := range s.cells {
		c := &s.cells[i]
		if c.memo == nil {
			continue
		}
		c.ub = math.Inf(1)
		if lb, err := costmodel.LowerBound(wl, cl, c.plan.P, c.plan.D, c.plan.B, c.plan.Scheme); err == nil && lb > 0 {
			c.ub = float64(c.plan.D*c.plan.B*c.plan.MicroRows) / lb
		}
	}
}

// prefetch resolves the whole shard against the Tuner's cache tiers up
// front, writing each hit into its key's memo, which pins it for the
// sweep's lifetime (an LRU eviction before the walk cannot force a
// re-simulation): the layout IS the deterministic key enumeration, so one
// MultiGet over the keys the LRU misses replaces the per-key probes every
// worker would otherwise issue — one round trip here plus one flush in
// reduce, whatever the grid size (the transport chunks above
// cachewire.MaxBatch). Remote hits seed the LRU for the next sweep. A
// transport error degrades every unresolved key to a miss and counts once
// — partial results (filled before the error) are still used.
func (s *gridSweep) prefetch() {
	t := s.t
	if t == nil {
		return
	}
	hks := make([]uint64, 0, len(s.cells))
	for i := range s.cells {
		c := &s.cells[i]
		if !c.first {
			continue
		}
		if ent, ok := t.cache.get(c.gk); ok {
			c.memo.es, c.memo.hit = ent.toShared(), true
		} else if t.remote != nil {
			hks = append(hks, c.hk)
		}
	}
	if len(hks) == 0 {
		return
	}
	out := make([]cachewire.Entry, len(hks))
	okv := make([]bool, len(hks))
	if err := t.remote.MultiGet(hks, out, okv); err != nil {
		t.rerrs.Add(1)
	}
	// hks lists the LRU's misses in cell order: walk them again to match.
	j := 0
	for i := range s.cells {
		c := &s.cells[i]
		if !c.first || c.memo.hit {
			continue
		}
		if okv[j] {
			ent := entryFromWire(out[j])
			t.cache.put(c.gk, ent)
			c.memo.es, c.memo.hit = ent.toShared(), true
		}
		j++
	}
}

// order is the walk over every valid cell. A branch-and-bound
// sweep (TopK > 0) goes best-first — descending analytic upper bound — so
// the true winners tend to evaluate first and the cutoff tightens as early
// as possible. An exhaustive sweep feeds the largest schedules first: a
// fresh evaluator then sizes every arena once, on its first key, instead
// of regrowing them up the P × wave ladder, and a wider pool starts its
// longest cells first. Everything lands in grid-order measured slots, so
// reduce is order-independent.
func (s *gridSweep) order() []int {
	idx := make([]int, 0, len(s.cells))
	for i := range s.cells {
		if s.cells[i].memo != nil {
			idx = append(idx, i)
		}
	}
	if s.space.TopK > 0 {
		slices.SortStableFunc(idx, func(a, b int) int { return cmp.Compare(s.cells[b].ub, s.cells[a].ub) })
	} else {
		slices.SortStableFunc(idx, func(a, b int) int { return s.cells[b].size - s.cells[a].size })
	}
	return idx
}

// evaluate measures the cells of order's walk, in that order, on
// min(workers, cells) goroutines pulling from a shared feed; each result
// lands in the cell's own measured slot.
func (s *gridSweep) evaluate() {
	idx := s.order()
	w := min(s.workers, len(idx)) // a pool wider than the walk would only start idle goroutines
	if w <= 1 {
		// One worker is the caller: no feed, no goroutine to wait for.
		for _, i := range idx {
			s.measured[i] = s.measure(&s.cells[i])
		}
		return
	}
	feed := make(chan int, len(idx))
	for _, i := range idx {
		feed <- i
	}
	close(feed)
	var wg sync.WaitGroup
	for ; w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				s.measured[i] = s.measure(&s.cells[i])
			}
		}()
	}
	wg.Wait()
}

// measure evaluates one cell of the walk: a cell whose analytic bound
// strictly loses to the cutoff is skipped outright, everything else
// resolves under the cutoff-derived virtual-clock cap, and every complete
// value feeds back into the cutoff. The cutoff is read once per cell; it
// can only have risen by evaluation time, so a stale read merely
// over-evaluates. A key this sweep already holds complete is exempt from
// the skip — resolve serves it exact for free, and a mathematically tight
// bound can land a float ulp below the simulated value, which would flip
// the strict comparison on what is really a tie with the key's own value.
func (s *gridSweep) measure(c *sweepCell) Candidate {
	plan := c.plan
	var deadline float64
	if co := s.cut.cutoff(); co > 0 {
		if c.ub < co && !c.memo.done.Load() {
			// Provably below at least TopK fully evaluated rows — strictly, so
			// a tie with the cutoff still evaluates and tie order survives.
			s.cut.pruned.Add(1)
			return Candidate{Plan: plan, BoundPruned: true, Bound: c.ub}
		}
		// A run whose per-replica makespan passes this cap scores total
		// throughput strictly under the cutoff; RunDeadline's abort is
		// strict too, so a run landing exactly on the cap completes.
		deadline = float64(plan.D*plan.B*plan.MicroRows) / co
	}
	es, err := s.resolve(c, deadline)
	if err == nil && es.boundOnly {
		s.cut.pruned.Add(1)
		return Candidate{Plan: plan, BoundPruned: true, Bound: es.perReplica * float64(plan.D)}
	}
	cand := candidateFrom(plan, es, err)
	s.cut.observe(c.slot, cand.Throughput)
	return cand
}

// resolve is the one evaluation path: every cell of every mode — standalone
// or Tuner-served, exhaustive or TopK, shard or Rerank — obtains its key's
// evaluation here, from the nearest tier that holds it complete:
//
//	sweep memo (holding prefetch's LRU and remote hits) → cross-sweep flight → measure
//
// and a fresh measurement is published — memo, flight, LRU, end-of-sweep
// flush — only if it is complete. A deadline-aborted (boundOnly) verdict
// depends on this sweep's cutoff and the cell's D, so it is returned to
// this cell and reaches nothing else: the memo stays open, the flight
// lands empty and its followers measure for themselves. Every cache entry
// is a complete evaluation, so a hit is exact whatever the deadline.
//
// The memo lock is held across the flight wait and the pool checkout on
// purpose — serialising a key's builders is what it is for — and cannot
// deadlock: a flight's leader waits only for a pool slot, and a slot's
// holder waits for nothing.
func (s *gridSweep) resolve(c *sweepCell, deadline float64) (*evalShared, error) {
	m := c.memo
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.hit || m.done.Load() {
		m.done.Store(true) // a prefetched hit completes the memo on first use
		return &m.es, m.err
	}
	t := s.t
	var f *flight // the flight this call leads once every tier missed; nil standalone
	if t != nil {
		var ent tunerEntry
		ok := false
		for !ok {
			// Another sweep may already be measuring this key: wait for its
			// result instead of re-simulating (the computation is
			// deterministic, so its error is this caller's error too). An
			// empty landing means its leader was deadline-aborted; join again.
			var leader bool
			if f, leader = t.join(c.gk); leader {
				// A flight that landed between prefetch's LRU miss and this
				// join published first: look once more before simulating.
				if ent, ok = t.cache.get(c.gk); ok {
					f.ent, f.full = ent, true
					t.land(c.gk, f)
				}
				break
			}
			<-f.done
			if f.err != nil {
				m.err = f.err
				m.done.Store(true)
				return nil, f.err
			}
			ent, ok = f.ent, f.full
		}
		if ok {
			m.es = ent.toShared()
			m.done.Store(true)
			return &m.es, nil
		}
	}
	// The checkout covers the whole measurement (compile + replay + sim):
	// schedule compilation is real work the admission control should bound.
	ev := s.pool.checkout()
	es, err := ev.evalSchedule(c.plan, s.space.Prune, deadline)
	s.pool.checkin(ev)
	if err == nil && es.boundOnly {
		if f != nil {
			t.land(c.gk, f) // lands empty: its followers measure for themselves
		}
		bound := es
		return &bound, nil
	}
	m.es, m.err = es, err // every cell naming the key reads the one slab copy
	m.done.Store(true)
	if f != nil {
		if f.err = err; err == nil {
			f.ent, f.full = entryFrom(&m.es), true
			// put before land: no window where neither the cache nor a
			// flight covers the key.
			t.cache.put(c.gk, f.ent)
			s.publish(c.hk, f.ent)
		}
		t.land(c.gk, f)
	}
	if err != nil {
		return nil, err
	}
	return &m.es, nil
}

// publish queues one fresh evaluation for the end-of-sweep flush.
func (s *gridSweep) publish(hk uint64, e tunerEntry) {
	if s.t.remote == nil {
		return
	}
	s.pubMu.Lock()
	s.pubKeys = append(s.pubKeys, hk)
	s.pubEnts = append(s.pubEnts, e.wire())
	s.pubMu.Unlock()
}

// reduce ends the sweep: every queued evaluation goes to the remote tier
// in one batched MultiPut (the pool has drained, so no lock is needed; a
// transport error degrades to dropped publishes, counted once), then the
// measured cells fold into output rows in grid order, exactly as a serial
// sweep would: per (P, D) the regular candidates pass through, then the
// wave group contributes its best wave (first maximum wins). A pruned wave
// whose proven bound exceeds the best fully evaluated wave makes the whole
// row BoundPruned: the row's true maximum might hide in that pruned wave —
// but the bound is below the cutoff, so the row provably cannot rank in
// the top K, and the proven bound is surfaced instead of a
// potentially-wrong winner. (When the row DOES rank top-K, every bound
// below the cutoff is below the winner too, so the flag never fires and
// the winner is exact.)
func (s *gridSweep) reduce() []Candidate {
	if len(s.pubKeys) > 0 {
		if err := s.t.remote.MultiPut(s.pubKeys, s.pubEnts); err != nil {
			s.t.rerrs.Add(1)
		}
	}
	out := slices.Grow([]Candidate(nil), s.slots) // nil, like a serial append loop, when the shard owns nothing
	for i := 0; i < len(s.cells); {
		if s.cells[i].waves == 0 {
			out = append(out, s.measured[i])
			i++
			continue
		}
		best, maxBound := s.measured[i], 0.0
		for slot := s.cells[i].slot; i < len(s.cells) && s.cells[i].slot == slot; i++ {
			if c := &s.measured[i]; c.BoundPruned && c.Bound > maxBound {
				maxBound = c.Bound
			}
			if s.measured[i].Throughput > best.Throughput {
				best = s.measured[i]
			}
		}
		if maxBound > best.Throughput {
			best.BoundPruned, best.Bound = true, maxBound
		}
		out = append(out, best)
	}
	return out
}

// AutoTuneShard evaluates one shard's slice of the candidate grid —
// space must come from SearchSpace.Shard — and returns its candidates in
// grid order, unsorted: the form MergeShards stitches back together.
// Evaluation is identical to AutoTune's (same caches, same pruning, same
// worker pool), only the grid is restricted, so merging every shard of a
// partition reproduces the single-process ranking bit for bit.
func AutoTuneShard(cl *cluster.Cluster, model nn.Config, space SearchSpace) []Candidate {
	return sweepGrid(cl, model, space, nil)
}

// MergeShards recombines the grid-order outputs of AutoTuneShard into
// the full AutoTune ranking. parts[i] must be the output of shard i of a
// len(parts)-way partition of one space (the same cluster, model and
// space on every worker). Because every grid unit yields exactly one
// candidate and the shards own consecutive unit ranges in shard order,
// concatenating the parts reconstructs the exact grid-order candidate
// list of the single-process sweep; applying the identical stable sort
// then yields a bit-for-bit identical ranking — including the tie order,
// which the stable sort resolves by grid position.
func MergeShards(parts ...[]Candidate) []Candidate {
	out := slices.Concat(parts...)
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
