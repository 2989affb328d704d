// Package hanayo is the public API of this reproduction of "Hanayo:
// Harnessing Wave-like Pipeline Parallelism for Enhanced Large Model
// Training Efficiency" (Liu, Cheng, Zhou, You — SC '23).
//
// The package re-exports the stable surface of the internal modules:
//
//   - schedules: the unified action-list framework and all synchronous
//     schemes the paper studies (GPipe, DAPPLE/1F1B, Chimera, Chimera-wave,
//     Hanayo with W waves, interleaved 1F1B);
//   - executors: a discrete-event simulator (timing/bubbles/memory shape)
//     and a goroutine runtime that trains real transformers under any
//     generated schedule;
//   - models: cluster presets matching the paper's four evaluation
//     environments and the BERT/GPT-style model configurations;
//   - the planner: core.Plan and core.AutoTune for the §5.3 search.
//
// Quick start (see examples/quickstart for a runnable version):
//
//	plan := hanayo.Plan{
//	    Scheme: "hanayo-w2", Cluster: hanayo.FullNVLink(8),
//	    Model: hanayo.BERTStyle(), P: 8, D: 1, B: 8, MicroRows: 2,
//	}
//	thr, _ := plan.Throughput()        // simulated sequences/s
//	eng, _ := plan.Engine(42, nil)     // real training runtime
package hanayo

import (
	"repro/internal/cachewire"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/costmodel"
	"repro/internal/data"
	"repro/internal/exec"
	"repro/internal/memmodel"
	"repro/internal/memtrace"
	"repro/internal/nn"
	"repro/internal/perfmodel"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Planning and search (paper §3, §5.3).
type (
	// Plan is one fully specified pipeline-parallel configuration.
	Plan = core.Plan
	// Candidate is one point of the configuration search.
	Candidate = core.Candidate
	// SearchSpace bounds AutoTune.
	SearchSpace = core.SearchSpace
	// Eval is a plan's complete single-pass evaluation: one simulation
	// yields the memory estimate, feasibility and throughput together
	// (Plan.Evaluate). Plan.Memory and Plan.Fits give the memory half
	// without simulating.
	Eval = core.Eval
	// Tuner is the steady-state tuning service: concurrent AutoTune
	// sweeps served over a bounded pool of reusable evaluators with a
	// sharded cross-sweep evaluation cache. Construct once, share freely.
	Tuner = core.Tuner
	// TunerOptions bounds the service (pool width, cache size).
	TunerOptions = core.TunerOptions
)

// AutoTune sweeps plans over a cluster as in Fig 10. SearchSpace.Prune
// judges every configuration's memory on its schedule's activation peaks
// first, so infeasible cells never pay for a timing simulation and the
// ranking is unchanged but for Candidate.Pruned (a Faults plan with a
// Fail event leaves it to the simulation). SearchSpace.TopK
// turns the exhaustive sweep into an exact branch-and-bound search: the
// first TopK ranks stay bit-for-bit identical to the exhaustive ranking
// while provably losing cells are skipped or deadline-aborted, surfacing
// as Candidate.BoundPruned with their proven Bound. Validity is per cell:
// a grid may list one P under several D, feasible or not, and an
// infeasible cell reports its own Candidate.Err.
var AutoTune = core.AutoTune

// LowerBound proves a floor on the simulated per-replica makespan of a
// (scheme, P, D, B) cell straight from the cost model's FLOP/byte
// formulas — no schedule generation, no simulation, no allocation. It is
// the analytic certificate steering AutoTune's TopK branch-and-bound
// sweep, exported for planners that want to pre-rank or cap grids
// themselves.
var LowerBound = costmodel.LowerBound

// Workload pairs a model config with the per-micro-batch row count — the
// cost-model input of LowerBound.
type Workload = costmodel.Workload

// NewTuner builds the tuning service for serving many (possibly
// concurrent, possibly repeated) AutoTune sweeps.
var NewTuner = core.NewTuner

// Best picks the fastest feasible candidate.
var Best = core.Best

// Distributed sweep (cross-process sharding over a shared cache tier; see
// docs/ARCHITECTURE.md and cmd/hanayo-tuned).
type (
	// RemoteCache is the cross-process batch seam behind the Tuner
	// (TunerOptions.Remote): MultiGet / MultiPut resolve and publish whole
	// key vectors — one read at a sweep's start, one write at its end —
	// with entries keyed by a stable 64-bit hash of (cluster fingerprint ×
	// model × scheme × shape).
	RemoteCache = cachewire.Cache
	// RemoteEntry is the compact wire form of one cached evaluation.
	RemoteEntry = cachewire.Entry
	// CacheClient is a RemoteCache backed by a CacheServer over TCP.
	CacheClient = cachewire.Client
	// CacheServer serves the shared cache tier (cmd/hanayo-tuned -serve).
	CacheServer = cachewire.Server
	// LoopbackCache is the in-process RemoteCache for tests and
	// single-process wiring; it still round-trips the wire codec.
	LoopbackCache = cachewire.Loopback
	// CacheRing replicates the tier over N nodes by client-side
	// consistent hashing — the fleet-scale RemoteCache (see
	// docs/ARCHITECTURE.md, "cache fabric").
	CacheRing = cachewire.Ring
	// CacheRingNode declares one ring member (stable name + transport).
	CacheRingNode = cachewire.RingNode
	// CacheNodeErrors is one ring node's failure count (CacheRing.Errors).
	CacheNodeErrors = cachewire.NodeErrors
)

// Distributed-sweep constructors and the shard/merge pair. A worker
// process evaluates space.Shard(i, n) — a contiguous, work-balanced range
// of the grid — with AutoTuneShard (grid order, unsorted); MergeShards
// concatenates all n outputs in shard order and ranks them, bit-for-bit
// the single-process AutoTune ranking.
var (
	AutoTuneShard    = core.AutoTuneShard
	MergeShards      = core.MergeShards
	DialCache        = cachewire.Dial
	NewCacheServer   = cachewire.NewServer
	NewLoopbackCache = cachewire.NewLoopback
	// NewCacheRing rings existing transports; DialCacheRing dials a node
	// address list. NewCacheServerFromSnapshot restores a tier node from a
	// CacheServer.Snapshot stream (cmd/hanayo-tuned -snapshot).
	NewCacheRing               = cachewire.NewRing
	DialCacheRing              = cachewire.DialRing
	NewCacheServerFromSnapshot = cachewire.NewServerFromSnapshot
)

// SimRuns reports the process-wide count of discrete-event simulations
// issued through plan evaluation — the observability hook behind every
// "repeat sweeps cost zero simulations" guarantee.
var SimRuns = core.SimRuns

// CacheFrames reports the process-wide count of cache-tier round trips
// (frames) — SimRuns' transport-level sibling, behind every "a sweep
// costs O(1) round trips" guarantee, a Rerank's included.
var CacheFrames = cachewire.Frames

// CacheRetries reports the process-wide count of transient cache-tier
// failures absorbed by the client's retry loop: rising retries with
// flat Tuner.RemoteErrors means backoff is riding out a flaky tier.
var CacheRetries = cachewire.Retries

// Schedules (paper §3–§4.1).
type (
	// Schedule is a per-device action-list program.
	Schedule = sched.Schedule
	// Action is one action-list instruction.
	Action = sched.Action
	// Mapping assigns stages to devices and chunks.
	Mapping = sched.Mapping
)

// Scheme generators.
var (
	GPipe             = sched.GPipe
	DAPPLE            = sched.DAPPLE
	Chimera           = sched.Chimera
	ChimeraWave       = sched.ChimeraWave
	HanayoWaves       = sched.Hanayo
	Interleaved       = sched.Interleaved
	GEMS              = sched.GEMS
	ScheduleByName    = sched.ByName
	ValidateSchedule  = sched.Validate
	AnalyzeSchedule   = sched.Analyze
	WriteScheduleJSON = sched.WriteJSON
	ReadScheduleJSON  = sched.ReadJSON
)

// Executors. Both are backends of the shared action-list interpreter in
// internal/exec: the simulator plugs in virtual time, the runtime plugs in
// real tensors, and custom executors implement ExecBackend.
type (
	// SimOptions tunes the discrete-event simulator.
	SimOptions = sim.Options
	// SimResult is one simulated iteration.
	SimResult = sim.Result
	// Engine is the real training runtime.
	Engine = runtime.Engine
	// EngineConfig assembles an Engine directly (Plan.Engine is simpler).
	EngineConfig = runtime.Config
	// ExecBackend is the pluggable executor-semantics interface of the
	// shared interpreter — the extension point for new executors (async
	// variants, say) without a new walking loop.
	ExecBackend = exec.Backend
	// ExecOptions tunes interpreter semantics (comm-run batching).
	ExecOptions = exec.Options
	// ExecRecord is one executed compute action with its time span, the
	// timeline entry both executors produce.
	ExecRecord = exec.Record
	// MemTraceResult is one memory replay: per-device live-byte curves and
	// activation peaks, measured on the action lists without tensor math
	// or a timing model.
	MemTraceResult = memtrace.Result
	// MemTraceSample is one point of a device's live-byte curve.
	MemTraceSample = memtrace.Sample
	// SimRunner is a reusable simulation handle: it owns the executor's
	// arenas and drives repeated runs at ~0 allocations in steady state.
	// Not safe for concurrent use; its Result is valid until the next Run.
	SimRunner = sim.Runner
	// MemReplayer is the reusable memory-replay handle, with a budgeted
	// early-exit mode (RunBudget). It takes executable schedules only
	// (generated, or accepted by ValidateSchedule); RunMemTrace validates.
	MemReplayer = memtrace.Replayer
	// ScheduleGenerator is the reusable schedule compiler: it owns the
	// greedy scheduler's arenas, per-shape mapping/cap caches and the
	// dense validation state, generating validated schedules at 0 allocs
	// in steady state. Not safe for concurrent use; its Schedule is valid
	// until the next Generate.
	ScheduleGenerator = sched.Generator
	// ExecLoop is the reusable interpreter driver behind SimRunner — the
	// extension point for allocation-free custom executors.
	ExecLoop = exec.Loop
)

// Reusable-executor constructors (zero values also work).
var (
	NewSimRunner         = sim.NewRunner
	NewMemReplayer       = memtrace.NewReplayer
	NewScheduleGenerator = sched.NewGenerator
)

// RunMemTrace replays a schedule against the memory model only (the
// measured Fig 8 distribution); for a planned configuration, replay
// Plan.Schedule's result.
var RunMemTrace = memtrace.Run

// Interpreter drivers for custom backends: Interpret walks all devices
// cooperatively (discrete-event style, ErrBlocked to yield), and
// InterpretConcurrent walks one goroutine per device (blocking hooks).
var (
	Interpret           = exec.Run
	InterpretConcurrent = exec.RunConcurrent
	ErrExecBlocked      = exec.ErrBlocked
)

// Simulate runs a schedule against a cost oracle.
var Simulate = sim.Run

// DefaultSimOptions is the paper-faithful executor configuration.
var DefaultSimOptions = sim.DefaultOptions

// NewEngine builds a runtime engine from an explicit config.
var NewEngine = runtime.New

// Models and workloads.
type (
	// ModelConfig describes a transformer.
	ModelConfig = nn.Config
	// Cluster is a device + interconnect model.
	Cluster = cluster.Cluster
	// Batch is one training batch.
	Batch = data.Batch
	// Generator produces synthetic batches.
	Generator = data.Generator
	// Uniform is the synthetic tf/tb/tc cost oracle.
	Uniform = costmodel.Uniform
)

// Model presets from the paper's §5.
var (
	BERTStyle = nn.BERTStyle
	GPTStyle  = nn.GPTStyle
	TinyModel = nn.Tiny
)

// Cluster presets from the paper's §5. ClusterByName also resolves the
// degraded variants ("fc:straggler", "tacc:slowlink", ...).
var (
	TACC          = cluster.TACC
	Tencent       = cluster.Tencent
	PartialNVLink = cluster.PartialNVLink
	FullNVLink    = cluster.FullNVLink
	ClusterByName = cluster.ByName
)

// Fault model: static cluster perturbations (stragglers, degraded
// links — exact in both the simulator and the analytic lower bound) and
// dynamic fault plans (timed slowdowns, link degradations and device
// failures injected into the discrete-event walk). A FaultPlan on a
// Plan or SearchSpace makes failed cells surface as deterministic
// infeasible verdicts with recovery estimates.
type (
	// FaultPlan is a set of timed fault events plus a restart-cost model.
	FaultPlan = sim.FaultPlan
	// FaultEvent is one typed fault (slowdown, link degrade, failure).
	FaultEvent = sim.FaultEvent
)

var (
	// SlowDown / LinkDegrade / Fail build the three fault event kinds.
	SlowDown    = sim.SlowDown
	LinkDegrade = sim.LinkDegrade
	Fail        = sim.Fail
	// ParseFaultPlan reads the -faultplan JSON format.
	ParseFaultPlan = sim.ParseFaultPlan
	// ApplyStraggler perturbs a cluster from a "dev:factor" CLI spec.
	ApplyStraggler = cluster.ApplyStraggler
)

// Elasticity: typed membership events over immutable clusters, the
// top-K re-ranking they trigger (Tuner.Rerank), and
// the drain-and-replan training loop that applies the result live. See
// docs/ARCHITECTURE.md ("Elasticity") and internal/experiments/ELASTIC.md.
type (
	// ClusterEvent is one typed membership/perturbation event (device
	// leave/join, speed change, link change); Cluster.Apply folds it
	// into a new cluster without mutating the old one.
	ClusterEvent = cluster.Event
	// ClusterEventKind discriminates ClusterEvent (JSON round-trippable).
	ClusterEventKind = cluster.EventKind
	// RerankStats reports a Tuner.Rerank's work — grid cells, output
	// rows, bound-pruned cells and simulations — next to a ranking that
	// is bit-for-bit the cold top-K AutoTune ranking.
	RerankStats = core.RerankStats
	// ElasticSession is the drain-and-replan training loop: Step trains
	// one batch, Notify queues membership events applied at the next
	// iteration boundary, and a mid-step device failure aborts the step,
	// shrinks the cluster, replans and retries the same batch with
	// bit-exact parameters.
	ElasticSession = core.ElasticSession
	// ElasticOptions configures NewElasticSession.
	ElasticOptions = core.ElasticOptions
	// ReplanReport records one replan: the triggering event, old and new
	// plans, RerankStats and wall-clock latency.
	ReplanReport = core.ReplanReport
	// EngineDeviceError identifies the device and micro-batch of a
	// runtime device failure (errors.As target; wraps ErrDeviceFailed).
	EngineDeviceError = runtime.DeviceError
)

// Membership event kinds (ClusterEvent.Kind).
const (
	DeviceLeave = cluster.DeviceLeave
	DeviceJoin  = cluster.DeviceJoin
	SpeedChange = cluster.SpeedChange
	LinkChange  = cluster.LinkChange
)

var (
	// ParseClusterEvents reads the -events JSON stream format of
	// cmd/hanayo-bench and cmd/hanayo-tuned.
	ParseClusterEvents = cluster.ParseEvents
	// ApplyClusterEvents folds an event stream over a cluster, returning
	// every intermediate state.
	ApplyClusterEvents = cluster.ApplyEvents
	// NewElasticSession starts the elastic training loop on the best
	// feasible plan of an initial ranking over the given space.
	NewElasticSession = core.NewElasticSession
	// ErrDeviceFailed is the sentinel every runtime device failure wraps.
	ErrDeviceFailed = runtime.ErrDeviceFailed
)

// NewGenerator builds a synthetic workload generator.
var NewGenerator = data.NewGenerator

// Analytic models (Fig 1/2, Fig 8).
var (
	HanayoBubble  = perfmodel.HanayoBubble
	GPipeBubble   = perfmodel.GPipeBubble
	DAPPLEBubble  = perfmodel.DAPPLEBubble
	ChimeraBubble = perfmodel.ChimeraBubble
	ModelSizeGB   = memmodel.ModelSizeGB
)

// Rendering helpers.
var (
	Gantt        = trace.Gantt
	GanttLegend  = trace.Legend
	ExportCSV    = trace.CSV
	ExportChrome = trace.Chrome
)
