// Package memmodel estimates per-device peak GPU memory for a schedule:
// weight/optimizer state from the placement (Chimera's 2× replication vs.
// the single copy of wave placements) plus live activations from the
// simulator's peak counts. It powers the paper's Fig 8 distribution, the
// OOM entries of Fig 10/12, and feasibility checks in the autotuner. It
// prices the paper's configuration: every device holds the full training
// state of its stages (no ZeRO sharding) and every live activation keeps
// its layers' internals (no recompute).
package memmodel

import (
	"slices"

	"repro/internal/cluster"
	"repro/internal/nn"
	"repro/internal/sched"
)

// BytesPerParam is the mixed-precision training footprint per parameter:
// fp16 weight (2) + fp16 gradient (2) + fp32 master copy (4) + fp32 Adam
// first and second moments (8) = 16 bytes.
const BytesPerParam = 16.0

// ParamsPerLayer counts one transformer block's parameters:
// 4h² attention + 8h² MLP + biases and layernorms ≈ 12h² + 13h.
func ParamsPerLayer(cfg nn.Config) float64 {
	h := float64(cfg.Hidden)
	return 12*h*h + 13*h
}

// EmbeddingParams counts token and position tables.
func EmbeddingParams(cfg nn.Config) float64 {
	return float64(cfg.Vocab+cfg.SeqLen) * float64(cfg.Hidden)
}

// LayerActBytes estimates the fp16 activation memory one transformer block
// stores for one micro-batch (Korthikanti et al.'s sbh(34 + 5as/h) count):
// 34·s·b·h for the dense parts plus 5·a·s²·b for attention matrices.
func LayerActBytes(cfg nn.Config, rows int) float64 {
	s, b, h, a := float64(cfg.SeqLen), float64(rows), float64(cfg.Hidden), float64(cfg.Heads)
	return 34*s*b*h + 5*a*s*s*b
}

// Estimate is the per-device memory breakdown for one schedule.
type Estimate struct {
	WeightBytes []float64 // per device: params + grads + optimizer state
	ActBytes    []float64 // per device: peak live activations
}

// Total returns weight+activation bytes per device.
func (e *Estimate) Total() []float64 {
	out := make([]float64, len(e.WeightBytes))
	for i := range out {
		out[i] = e.WeightBytes[i] + e.ActBytes[i]
	}
	return out
}

// PeakGB converts a device's total to gigabytes.
func (e *Estimate) PeakGB(d int) float64 { return (e.WeightBytes[d] + e.ActBytes[d]) / 1e9 }

// MaxGB returns the highest per-device total in GB — the number that
// decides whether a scheme fits a cluster (paper §5.1).
func (e *Estimate) MaxGB() float64 {
	m := 0.0
	for i := range e.WeightBytes {
		if t := e.PeakGB(i); t > m {
			m = t
		}
	}
	return m
}

// VarianceGB returns the variance of per-device totals in GB², the
// balance metric of §5.1.
func (e *Estimate) VarianceGB() float64 {
	n := float64(len(e.WeightBytes))
	var mean float64
	for i := range e.WeightBytes {
		mean += e.PeakGB(i)
	}
	mean /= n
	var v float64
	for i := range e.WeightBytes {
		d := e.PeakGB(i) - mean
		v += d * d
	}
	return v / n
}

// ForSchedule estimates memory for schedule sc with model cfg and rows
// sequences per micro-batch. peakActs is the per-device peak count of live
// stage-activations (from sim.Result.PeakActs, or an analytic bound).
func ForSchedule(sc *sched.Schedule, cfg nn.Config, rows int, peakActs []int) *Estimate {
	e := &Estimate{}
	ForScheduleInto(e, sc, cfg, rows, peakActs)
	return e
}

// ForScheduleInto is ForSchedule writing into e, reusing the storage of
// its slices: the one implementation of the estimate, and the form a
// caller pricing many schedules in turn (the configuration search) uses to
// judge each on one Estimate it owns.
func ForScheduleInto(e *Estimate, sc *sched.Schedule, cfg nn.Config, rows int, peakActs []int) {
	stageAct := StageActBytes(sc, cfg, rows)
	e.WeightBytes = weightsInto(e.WeightBytes, sc, cfg)
	e.ActBytes = slices.Grow(e.ActBytes[:0], sc.P)[:sc.P]
	for d := 0; d < sc.P; d++ {
		e.ActBytes[d] = float64(peakActs[d]) * stageAct
	}
}

// StageActBytes returns the activation bytes one live stage-activation
// holds for this schedule's stage granularity — the unit both the memtrace
// budget check and the estimate's ActBytes count in.
func StageActBytes(sc *sched.Schedule, cfg nn.Config, rows int) float64 {
	return float64(cfg.Layers) / float64(sc.S) * LayerActBytes(cfg, rows)
}

// Weights returns the per-device weight/gradient/optimizer-state bytes of
// one schedule — the activation-independent slice of the estimate, fixed
// by the placement before any execution. Subtracting it from device
// capacity yields the live-activation budget memtrace.Replayer.RunBudget
// checks without a timing model.
func Weights(sc *sched.Schedule, cfg nn.Config) []float64 {
	return weightsInto(nil, sc, cfg)
}

// weightsInto is Weights writing into dst's storage (grown when short) and
// returning it resized to the schedule's devices.
func weightsInto(dst []float64, sc *sched.Schedule, cfg nn.Config) []float64 {
	p := sc.P
	layersPerStage := float64(cfg.Layers) / float64(sc.S)
	stageParams := layersPerStage * ParamsPerLayer(cfg)
	embedShare := EmbeddingParams(cfg) / float64(p) // spread across devices
	out := slices.Grow(dst[:0], p)[:p]
	for d := 0; d < p; d++ {
		chunks := float64(len(sc.Mapping.Hosted(d)))
		out[d] = (chunks*stageParams + embedShare) * BytesPerParam
	}
	return out
}

// AnalyticPeakActs returns per-device peak live-activation counts without
// running the simulator: each hosted chunk holds at most its stage's
// inflight cap (sched.Scheme.Cap, the generator's own budget) or the
// micro-batches of its pipe, whichever is fewer — B for GPipe, min(P−s, B)
// for DAPPLE, half the micro-batches per Chimera direction. A schedule
// whose scheme ParseScheme does not know (hand-built, async-1f1b) gets B
// per hosted chunk, the bound every schedule meets.
func AnalyticPeakActs(sc *sched.Schedule) []int {
	out := make([]int, sc.P)
	s, err := sched.ParseScheme(sc.Scheme)
	if err != nil {
		for d := range out {
			out[d] = sc.B * len(sc.Mapping.Hosted(d))
		}
		return out
	}
	for pipe := 0; pipe < s.Pipes(); pipe++ {
		micros := s.Micros(pipe, sc.B)
		for st := 0; st < sc.S; st++ {
			n := micros
			if c := s.Cap(sc.P, st); c > 0 {
				n = min(c, n)
			}
			out[s.Device(sc.P, pipe, st)] += n
		}
	}
	return out
}

// FitsCluster reports whether every device's estimate fits its memory,
// with a safety margin fraction (e.g. 0.9 uses 90% of HBM).
func FitsCluster(e *Estimate, cl *cluster.Cluster, margin float64) bool {
	for d := range e.WeightBytes {
		if e.WeightBytes[d]+e.ActBytes[d] > cl.MemBytes(d%cl.N())*margin {
			return false
		}
	}
	return true
}

// ModelParams returns the full model parameter count.
func ModelParams(cfg nn.Config) float64 {
	return float64(cfg.Layers)*ParamsPerLayer(cfg) + EmbeddingParams(cfg) +
		float64(cfg.Hidden)*float64(cfg.Vocab) // LM head
}

// ModelSizeGB returns the training-state footprint of the whole model.
func ModelSizeGB(cfg nn.Config) float64 {
	return ModelParams(cfg) * BytesPerParam / 1e9
}
