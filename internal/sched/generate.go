package sched

// Option tweaks schedule generation.
type Option func(*GenParams)

// WithCosts overrides the relative Tf/Tb/Tc used by the greedy generator.
func WithCosts(tf, tb, tc float64) Option {
	return func(p *GenParams) { p.Tf, p.Tb, p.Tc = tf, tb, tc }
}

// The one-shot scheme constructors below each drive a fresh single-use
// Generator, so their schedules share no storage with any reusable state
// and may be retained freely — the exact analogue of sim.Run delegating to
// a fresh sim.Runner. Sweeps and services that generate repeatedly should
// hold a Generator instead and pay zero steady-state allocations.

// GPipe generates the classic schedule: straight placement, all forwards
// then all backwards per device, unbounded live activations (paper Fig 3a).
func GPipe(p, b int, opts ...Option) (*Schedule, error) {
	return NewGenerator().generate(Scheme{fam: famGPipe}, p, b, opts...)
}

// DAPPLE generates the 1F1B schedule: straight placement, eager backwards,
// live activations capped at P−s per stage (paper Fig 3b).
func DAPPLE(p, b int, opts ...Option) (*Schedule, error) {
	return NewGenerator().generate(Scheme{fam: famDAPPLE}, p, b, opts...)
}

// Chimera generates the bidirectional schedule with two weight replicas:
// micro-batches with even index run down, odd run up, so both halves
// progress symmetrically and fill each other's bubbles (paper Fig 3c).
func Chimera(p, b int, opts ...Option) (*Schedule, error) {
	return NewGenerator().generate(Scheme{fam: famChimera}, p, b, opts...)
}

// Hanayo generates the wave-like schedule with w waves: S = 2·w·P stages,
// eager backwards, live activations capped at S−s (papers Fig 3d/3e, Fig 6).
// Hanayo(p, 1, b) is Chimera-wave, the optimized transform of Chimera the
// paper benchmarks against (§3.2, Fig 5).
func Hanayo(p, w, b int, opts ...Option) (*Schedule, error) {
	return NewGenerator().generate(Scheme{fam: famHanayo, arg: w}, p, b, opts...)
}

// ChimeraWave is the paper's evaluation baseline "Chimera-wave": Chimera
// after the wave transformation, i.e. Hanayo with a single wave.
func ChimeraWave(p, b int, opts ...Option) (*Schedule, error) {
	return NewGenerator().generate(Scheme{fam: famChimeraWave, arg: 1}, p, b, opts...)
}

// Interleaved generates Megatron-LM's interleaved 1F1B with v chunks per
// device (§2.2 mentions it as DAPPLE's refinement).
func Interleaved(p, v, b int, opts ...Option) (*Schedule, error) {
	return NewGenerator().generate(Scheme{fam: famInterleaved, arg: v}, p, b, opts...)
}

// AsyncOneFOneB generates an asynchronous (no-flush) 1F1B block covering
// iters weight updates worth of micro-batches with no barrier between them
// (paper Fig 4b): the flush bubbles vanish and the steady state is fully
// packed. Weight staleness is the semantic cost; we only study timing.
func AsyncOneFOneB(p, b, iters int, opts ...Option) (*Schedule, error) {
	return NewGenerator().generate(Scheme{fam: famAsync}, p, b*iters, opts...)
}

// ZBH1 generates a zero-bubble ZB-H1-like schedule: straight placement and
// 1F1B's eager-backward priority, but every backward is split into an
// input-gradient action (OpBackwardInput — the critical path, which
// releases the micro-batch's activation) and a weight-gradient action
// (OpBackwardWeight — dependency-free, slotted into pipeline bubbles any
// time before the flush). The split shortens the activation round trip, so
// the live-activation cap tightens below 1F1B's P−s while the W fillers
// soak up bubble time.
func ZBH1(p, b int, opts ...Option) (*Schedule, error) {
	return NewGenerator().generate(Scheme{fam: famZBH1}, p, b, opts...)
}

// ByName builds a schedule from a scheme name used by benchmarks and CLIs
// (ParseScheme lists them). It delegates to a fresh Generator, so the result is
// structurally identical to Generator.Generate output and already
// validated.
func ByName(name string, p, b int, opts ...Option) (*Schedule, error) {
	return NewGenerator().Generate(name, p, b, opts...)
}
