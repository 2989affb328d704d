package costmodel

// The analytic makespan lower bound behind the bound-and-prune AutoTune
// sweep (docs/ARCHITECTURE.md, "Bound-and-prune sweep"): LowerBound proves
// a floor on any schedule's simulated makespan straight from the same
// FLOP/byte formulas Cost precomputes — no schedule generation, no
// simulation, no allocation. The bound composes three certificates, each a
// dependency-only argument that holds for every executable schedule of the
// scheme's placement, whatever the op order:
//
//  1. Per-device occupancy: a device cannot start computing before the
//     cheapest forward chain reaching one of its hosted stages completes,
//     must then serially retire every compute op assigned to it, and after
//     its final compute (always a backward — each forward's backward runs
//     later on the same device) the cheapest backward chain below one of
//     its hosted stages still has to drain.
//  2. Single-micro critical path: one micro-batch's forward chain followed
//     by its backward chain, with a communication hop at every
//     cross-device stage boundary, is a sequential dependency chain.
//  3. Link occupancy: a directed link serializes its transfers, so a
//     boundary crossed by n micro-batches keeps its link busy for n
//     transfer times.
//
// The bound mirrors Cost's default knobs (BackwardRatio = 2, uniform
// stages) — exactly the configuration every sweep evaluation uses — and
// ignores Options.FlushTime, no-prefetch and unbatched communication,
// all of which only increase the simulated makespan, so
// LowerBound ≤ sim makespan holds across every option set (property-
// tested against sim.Run for every named scheme, the zero-bubble split
// zbh1 included).
//
// Heterogeneity and faults. The certificates read cl.Flops and
// cl.CommTime per device and per link, so static heterogeneity — GPU
// speed factors, link degradation multipliers, mixed TFLOPS — is handled
// exactly, with no formula change and no slack: the bound remains tight
// on perturbed clusters and the bound-and-prune sweep stays exact there
// (TestTopKMatchesExhaustive runs perturbed variants). Dynamic faults
// (sim.FaultPlan) are invisible to the bound; soundness instead comes
// from the plan's validation contract: SlowDown/LinkDegrade factors are
// restricted to (0, 1], so a mid-run fault can only lengthen the
// simulated makespan beyond what the fault-free walk — already ≥ the
// bound — would report. A failed run is infeasible, reported with a
// recovery estimate, and never competes on makespan at all.

import (
	"fmt"
	"math"

	"repro/internal/cluster"
	"repro/internal/sched"
)

// LowerBound returns a proven lower bound on the per-replica simulated
// makespan (seconds) of scheme on p pipeline devices × d replicas of cl
// with b micro-batches of w.MicroRows sequences — computed from the same
// FLOP/byte formulas as Cost, with no schedule generation and no
// simulation. The bound assumes Cost's defaults (BackwardRatio 2, uniform
// stages), which is what every sweep evaluation runs; it is valid for
// every sim.Options (FlushTime, no-prefetch and unbatched communication
// only increase the makespan). d participates only in validation: the
// per-replica simulation is D-invariant, and callers convert to a total-
// throughput upper bound as d·b·MicroRows / LowerBound.
//
// The bound allocates nothing (pinned by TestLowerBoundAllocsZero);
// errors are reserved for invalid shapes and unknown schemes.
func LowerBound(w Workload, cl *cluster.Cluster, p, d, b int, scheme string) (float64, error) {
	if p <= 0 || d <= 0 || b <= 0 || w.MicroRows <= 0 {
		return 0, fmt.Errorf("costmodel: P, D, B, MicroRows must be positive (got %d,%d,%d,%d)", p, d, b, w.MicroRows)
	}
	if p*d > cl.N() {
		return 0, fmt.Errorf("costmodel: bound needs %d devices, cluster has %d", p*d, cl.N())
	}
	sc, err := sched.ParseScheme(scheme)
	if err != nil {
		return 0, err
	}
	if err := sc.CheckB(b); err != nil {
		return 0, err
	}
	// The placement in closed form (no Mapping is built, which keeps the
	// bound allocation-free). A split-backward scheme (zbh1) still does
	// 3·tf of compute per stage and micro (tf + tbi + tw with tbi = tw = tf),
	// but its certificates change shape: the single-micro critical path
	// descends through the input-grad halves only and ends at stage 0's
	// weight-grad op, and the per-device drain term vanishes — a device's
	// final compute is a dependency-free W. Both only weaken the bound.
	stages, pipes, split := sc.Stages(p), sc.Pipes(), sc.Split()

	// Per-stage forward FLOPs under the uniform-stage default; tf(dev) =
	// flops/Flops(dev), tb = 2·tf (Cost's default BackwardRatio).
	stageFLOPs := float64(w.Model.Layers) / float64(stages) * LayerForwardFLOPs(w.Model, w.MicroRows)
	actBytes := ActivationBytes(w.Model, w.MicroRows)

	lb := 0.0
	// Certificates 2 and 3: one pass per pipe over the stage chain
	// accumulates the single-micro critical path (forward chain + backward
	// chain + both communication hops at every cross-device boundary) and
	// the busiest-link bound (count·CommTime per direction).
	for pipe := 0; pipe < pipes; pipe++ {
		cnt := sc.Micros(pipe, b)
		if cnt == 0 {
			continue
		}
		chain := 0.0
		prev := -1
		for s := 0; s < stages; s++ {
			dv := sc.Device(p, pipe, s)
			tf := stageFLOPs / cl.Flops(dv)
			if split {
				// The backward descent runs input-grad halves only:
				// tf + tbi with tbi = tb/2 = tf under the default ratio.
				chain += 2 * tf
			} else {
				chain += 3 * tf // tf + tb
			}
			if s > 0 && prev != dv {
				act := cl.CommTime(prev, dv, actBytes)  // forward activation hop
				grad := cl.CommTime(dv, prev, actBytes) // backward gradient hop
				chain += act + grad
				if lk := float64(cnt) * act; lk > lb {
					lb = lk
				}
				if lk := float64(cnt) * grad; lk > lb {
					lb = lk
				}
			}
			prev = dv
		}
		if split {
			// The chain ends at stage 0's weight-grad op, which can only
			// start after its input-grad half: tw = tb − tb/2 = tf.
			chain += stageFLOPs / cl.Flops(sc.Device(p, pipe, 0))
		}
		if chain > lb {
			lb = chain
		}
	}

	// Certificate 1, per device dd: earliest possible first-compute start
	// (cheapest forward-chain prefix into a hosted stage), plus its total
	// assigned compute, plus the cheapest backward-chain drain below a
	// hosted stage. The prefix sums are carried incrementally so the whole
	// certificate is O(P·S) with no per-device arrays.
	for dd := 0; dd < p; dd++ {
		busy := 0.0
		earliest, drain := math.Inf(1), math.Inf(1)
		for pipe := 0; pipe < pipes; pipe++ {
			cnt := sc.Micros(pipe, b)
			if cnt == 0 {
				continue
			}
			fwdPre, bwdPre := 0.0, 0.0 // chain cost before stage s (fwd) / below it (bwd)
			prev := -1
			for s := 0; s < stages; s++ {
				dv := sc.Device(p, pipe, s)
				tf := stageFLOPs / cl.Flops(dv)
				if s > 0 && prev != dv {
					fwdPre += cl.CommTime(prev, dv, actBytes)
					bwdPre += cl.CommTime(dv, prev, actBytes)
				}
				if dv == dd {
					busy += float64(cnt) * 3 * tf
					if fwdPre < earliest {
						earliest = fwdPre
					}
					if bwdPre < drain {
						drain = bwdPre
					}
				}
				fwdPre += tf
				bwdPre += 2 * tf
				prev = dv
			}
		}
		if busy > 0 {
			if split {
				// A split device's final compute is a dependency-free
				// weight-grad op — nothing is forced to run after it, so
				// only occupancy (start + serial compute) survives.
				drain = 0
			}
			if db := earliest + busy + drain; db > lb {
				lb = db
			}
		}
	}
	return lb, nil
}
