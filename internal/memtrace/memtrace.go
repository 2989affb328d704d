// Package memtrace measures Fig 8's per-device memory profile by walking
// a schedule's action lists against the memory model only: every forward
// allocates its stage's activation bytes, every backward frees them, and
// nothing else costs memory. The product is a per-device live-byte curve
// and the activation-peak counts, without tensor math and without the
// timing simulation.
//
// A device's live count changes only at its own compute ops, which every
// executor retires in list order, so the walk is per device and needs no
// interpreter; the peak counts are sched.Schedule.PeakActs, the same count
// the timing simulator keeps as it runs.
package memtrace

import (
	"fmt"
	"slices"

	"repro/internal/memmodel"
	"repro/internal/nn"
	"repro/internal/sched"
)

// Sample is one point of a device's live-byte curve: the live activation
// bytes after retiring the Op-th compute action of that device's list.
type Sample struct {
	Op    int     // 0-based compute-op ordinal on this device
	Bytes float64 // live activation bytes after the op
}

// Result is one replayed iteration's memory profile.
type Result struct {
	Schedule *sched.Schedule
	// PeakActs is the per-device peak count of live stage-activations over
	// the whole iteration (sched.Schedule.PeakActs) — identical to
	// sim.Result.PeakActs, measured without the timing model.
	PeakActs []int
	// PeakBytes is the per-device peak of the live-byte curve.
	PeakBytes []float64
	// Curves holds one sample per compute op per device; each curve starts
	// after the device's first compute op and returns to zero at the end
	// of the iteration (every forward's bytes are freed by its backward).
	Curves [][]Sample
}

// Replayer is the reusable form of Run: it owns the Result's peak and
// curve storage, growing it monotonically to the largest schedule shape
// seen, so repeated replays (calibration loops, the benchmark's budgeted
// probe) run at 0 allocations in steady state.
//
// Its input must be an executable schedule — a Generator's or ByName's
// output, or one sched.Validate accepted. The walk reads each device's
// compute ops and never pairs communication, so it does not notice an
// unmatched or deadlocking send; the package-level Run validates first.
//
// The zero value is ready to use. A Replayer is NOT safe for concurrent
// use, and the *Result it returns is owned by the Replayer: it is valid
// only until the next replay. The package-level Run uses a fresh
// single-use Replayer and returns a freely retainable Result.
type Replayer struct {
	res Result
}

// NewReplayer returns an empty Replayer; its storage is allocated lazily.
func NewReplayer() *Replayer { return &Replayer{} }

// Run replays schedule s for model cfg at rows sequences per micro-batch,
// reusing the Replayer's storage. The returned Result is valid only until
// the next replay.
func (r *Replayer) Run(s *sched.Schedule, cfg nn.Config, rows int) (*Result, error) {
	res, _, err := r.replay(s, cfg, rows, nil)
	return res, err
}

// RunBudget is Run with an early exit: budget[d] is device d's live
// activation-byte ceiling (capacity minus its schedule-static weight and
// optimizer bytes), and the replay stops at the first forward that pushes
// a device's live-byte curve past it. exceeded=true means the schedule
// cannot fit; the Result's curves and PeakBytes then end at (and include)
// the violating forward, devices after it hold empty curves, and PeakActs
// still covers the whole iteration.
func (r *Replayer) RunBudget(s *sched.Schedule, cfg nn.Config, rows int, budget []float64) (res *Result, exceeded bool, err error) {
	if len(budget) < s.P {
		return nil, false, fmt.Errorf("memtrace: budget covers %d devices, schedule has %d", len(budget), s.P)
	}
	return r.replay(s, cfg, rows, budget)
}

func (r *Replayer) replay(s *sched.Schedule, cfg nn.Config, rows int, budget []float64) (*Result, bool, error) {
	if rows <= 0 {
		return nil, false, fmt.Errorf("memtrace: rows must be positive, got %d", rows)
	}
	res := &r.res
	res.Schedule = s
	res.PeakActs = s.PeakActs(res.PeakActs)
	res.PeakBytes = slices.Grow(res.PeakBytes[:0], s.P)[:s.P]
	clear(res.PeakBytes)
	res.Curves = slices.Grow(res.Curves[:0], s.P)[:s.P]
	for d := range res.Curves {
		res.Curves[d] = res.Curves[d][:0]
	}
	stageAct := memmodel.StageActBytes(s, cfg, rows)
	for d, list := range s.Lists {
		// Compute ops are a subset of the list: its length bounds the curve.
		curve := slices.Grow(res.Curves[d], len(list))
		bytes := 0.0
		for _, a := range list {
			switch a.Kind {
			case sched.OpForward:
				bytes += stageAct
				res.PeakBytes[d] = max(res.PeakBytes[d], bytes)
			case sched.OpBackward, sched.OpBackwardInput:
				// A fused backward or the input-gradient half releases the
				// activation; the weight-gradient half is byte-neutral but
				// still sampled, so the curve has one point per compute op.
				bytes -= stageAct
			case sched.OpBackwardWeight:
			default:
				continue
			}
			curve = append(curve, Sample{Op: len(curve), Bytes: bytes})
			if budget != nil && a.Kind == sched.OpForward && bytes > budget[d] {
				res.Curves[d] = curve
				return res, true, nil
			}
		}
		res.Curves[d] = curve
	}
	return res, false, nil
}

// Run validates schedule s (sched.Validate), replays it for model cfg at
// rows sequences per micro-batch and returns the measured per-device
// memory profile. It uses a fresh single-use Replayer, so the Result may
// be retained freely.
func Run(s *sched.Schedule, cfg nn.Config, rows int) (*Result, error) {
	if err := sched.Validate(s); err != nil {
		return nil, fmt.Errorf("memtrace: %w", err)
	}
	return NewReplayer().Run(s, cfg, rows)
}
