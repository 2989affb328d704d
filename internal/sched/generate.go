package sched

import "fmt"

// The one-shot scheme constructors below each drive a fresh single-use
// Generator and Validate its output's structure, so their schedules share
// no storage with any reusable state and may be retained freely — the
// analogue of sim.Run delegating to a fresh sim.Runner. That the lists run
// is proven where they run: every simulation refuses a list it cannot walk,
// and the training runtime proves them with sim.Validate. Sweeps and
// services that generate repeatedly should hold a Generator instead and pay
// zero steady-state allocations.

// oneShot compiles sc on a fresh Generator and checks the result's
// structure with Validate.
func oneShot(sc Scheme, p, b int) (*Schedule, error) {
	s, err := NewGenerator().generate(sc, p, b)
	if err != nil {
		return nil, err
	}
	if err := Validate(s); err != nil {
		return nil, fmt.Errorf("sched: %s: generated schedule invalid: %w", s.Scheme, err)
	}
	return s, nil
}

// GPipe generates the classic schedule: straight placement, all forwards
// then all backwards per device, unbounded live activations (paper Fig 3a).
func GPipe(p, b int) (*Schedule, error) {
	return oneShot(Scheme{fam: famGPipe}, p, b)
}

// DAPPLE generates the 1F1B schedule: straight placement, eager backwards,
// live activations capped at P−s per stage (paper Fig 3b).
func DAPPLE(p, b int) (*Schedule, error) {
	return oneShot(Scheme{fam: famDAPPLE}, p, b)
}

// Chimera generates the bidirectional schedule with two weight replicas:
// micro-batches with even index run down, odd run up, so both halves
// progress symmetrically and fill each other's bubbles (paper Fig 3c).
func Chimera(p, b int) (*Schedule, error) {
	return oneShot(Scheme{fam: famChimera}, p, b)
}

// Hanayo generates the wave-like schedule with w waves: S = 2·w·P stages,
// eager backwards, live activations capped at S−s (papers Fig 3d/3e, Fig 6).
// Hanayo(p, 1, b) is Chimera-wave, the optimized transform of Chimera the
// paper benchmarks against (§3.2, Fig 5).
func Hanayo(p, w, b int) (*Schedule, error) {
	return oneShot(Scheme{fam: famHanayo, arg: w}, p, b)
}

// Interleaved generates Megatron-LM's interleaved 1F1B with v chunks per
// device (§2.2 mentions it as DAPPLE's refinement).
func Interleaved(p, v, b int) (*Schedule, error) {
	return oneShot(Scheme{fam: famInterleaved, arg: v}, p, b)
}

// AsyncOneFOneB generates an asynchronous (no-flush) 1F1B block covering
// iters weight updates worth of micro-batches with no barrier between them
// (paper Fig 4b): the flush bubbles vanish and the steady state is fully
// packed. Weight staleness is the semantic cost; we only study timing.
func AsyncOneFOneB(p, b, iters int) (*Schedule, error) {
	return oneShot(Scheme{fam: famAsync}, p, b*iters)
}

// ZBH1 generates a zero-bubble ZB-H1-like schedule: straight placement and
// 1F1B's eager-backward priority, but every backward is split into an
// input-gradient action (OpBackwardInput — the critical path, which
// releases the micro-batch's activation) and a weight-gradient action
// (OpBackwardWeight — dependency-free, slotted into pipeline bubbles any
// time before the flush). The split shortens the activation round trip, so
// the live-activation cap tightens below 1F1B's P−s while the W fillers
// soak up bubble time.
func ZBH1(p, b int) (*Schedule, error) {
	return oneShot(Scheme{fam: famZBH1}, p, b)
}

// ByName builds a schedule from a scheme name used by benchmarks and CLIs
// (ParseScheme lists them). It delegates to a fresh Generator, so the
// result is structurally identical to Generator.Generate output, and then
// proves it with Validate.
func ByName(name string, p, b int) (*Schedule, error) {
	sc, err := ParseScheme(name)
	if err != nil {
		return nil, err
	}
	return oneShot(sc, p, b)
}
