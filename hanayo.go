// Package hanayo is the public API of this reproduction of "Hanayo:
// Harnessing Wave-like Pipeline Parallelism for Enhanced Large Model
// Training Efficiency" (Liu, Cheng, Zhou, You — SC '23).
//
// The package re-exports the planner (§5.3 search), schedules (§3–§4.1),
// the simulator and training runtime, and the cluster, model and fault
// presets — exactly the names the programs under examples/ and this
// package's Example functions use (TestFacadeNamesUsed enforces it). The
// commands under cmd/ and the benchmark import the internal packages
// directly.
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
	"repro/internal/memmodel"
	"repro/internal/nn"
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
	// Tuner is the steady-state tuning service: concurrent AutoTune
	// sweeps served over a bounded pool of reusable evaluators with a
	// sharded cross-sweep evaluation cache. Construct once, share freely.
	Tuner = core.Tuner
	// TunerOptions bounds the service (pool width, cache size, and
	// Remote, the cross-process cache tier cmd/hanayo-tuned serves).
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

// NewTuner builds the tuning service for serving many (possibly
// concurrent, possibly repeated) AutoTune sweeps.
var NewTuner = core.NewTuner

// Best picks the fastest feasible candidate.
var Best = core.Best

// Distributed sweep (cross-process sharding over a shared cache tier; see
// docs/ARCHITECTURE.md and cmd/hanayo-tuned). A worker process evaluates
// space.Shard(i, n) — a contiguous, work-balanced range of the grid — with
// AutoTuneShard (grid order, unsorted); MergeShards concatenates all n
// outputs in shard order and ranks them, bit-for-bit the single-process
// AutoTune ranking. NewLoopbackCache is the in-process TunerOptions.Remote
// for single-process wiring; it still round-trips the wire codec.
var (
	AutoTuneShard    = core.AutoTuneShard
	MergeShards      = core.MergeShards
	NewLoopbackCache = cachewire.NewLoopback
)

// SimRuns reports the process-wide count of discrete-event simulations
// issued through plan evaluation — the observability hook behind every
// "repeat sweeps cost zero simulations" guarantee.
var SimRuns = core.SimRuns

// Schedule is a per-device action-list program (paper §3–§4.1).
type Schedule = sched.Schedule

// Scheme generators and the schedule validator.
var (
	DAPPLE           = sched.DAPPLE
	HanayoWaves      = sched.Hanayo
	ValidateSchedule = sim.Validate
)

// EngineConfig assembles a real training Engine directly (Plan.Engine is
// simpler).
type EngineConfig = runtime.Config

// Simulate runs a schedule against a cost oracle.
var Simulate = sim.Run

// DefaultSimOptions is the paper-faithful executor configuration.
var DefaultSimOptions = sim.DefaultOptions

// NewEngine builds a runtime engine from an explicit config.
var NewEngine = runtime.New

// Models and workloads.
type (
	// Cluster is a device + interconnect model.
	Cluster = cluster.Cluster
	// Uniform is the synthetic tf/tb/tc cost oracle.
	Uniform = costmodel.Uniform
)

// Model presets from the paper's §5.
var (
	BERTStyle = nn.BERTStyle
	TinyModel = nn.Tiny
)

// Cluster presets from the paper's §5. ClusterByName also resolves the
// degraded variants ("fc:straggler", "tacc:slowlink", ...).
var (
	TACC          = cluster.TACC
	FullNVLink    = cluster.FullNVLink
	ClusterByName = cluster.ByName
)

// Fault model: static cluster perturbations (stragglers — exact in both
// the simulator and the analytic lower bound) and dynamic fault plans
// (timed slowdowns and device failures injected into the discrete-event
// walk). A FaultPlan on a Plan or SearchSpace makes failed cells surface
// as deterministic infeasible verdicts with recovery estimates.
type (
	// FaultPlan is a set of timed fault events plus a restart-cost model.
	FaultPlan = sim.FaultPlan
	// FaultEvent is one typed fault (slowdown, link degrade, failure).
	FaultEvent = sim.FaultEvent
)

var (
	// SlowDown / Fail build two of the fault event kinds.
	SlowDown = sim.SlowDown
	Fail     = sim.Fail
	// ApplyStraggler perturbs a cluster from a "dev:factor" CLI spec.
	ApplyStraggler = cluster.ApplyStraggler
)

// NewGenerator builds a synthetic workload generator.
var NewGenerator = data.NewGenerator

// ModelSizeGB returns the training-state footprint of a whole model.
var ModelSizeGB = memmodel.ModelSizeGB

// Gantt renders a simulated timeline as an ASCII chart.
var Gantt = trace.Gantt
