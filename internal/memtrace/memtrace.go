// Package memtrace judges a schedule against per-device activation-byte
// budgets without the timing simulation. A device is over its budget when
// its peak count of live stage-activations (sched.Schedule.PeakActs, one
// scan of its action list) times the bytes one of them holds
// (memmodel.StageActBytes) exceeds it: the same product
// memmodel.ForScheduleInto prices as the estimate's ActBytes.
package memtrace

import (
	"fmt"

	"repro/internal/memmodel"
	"repro/internal/nn"
	"repro/internal/sched"
)

// Replayer owns RunBudget's peak-count storage, grown to the largest
// schedule seen, so repeated checks run at 0 allocations in steady state.
// The zero value is ready to use. A Replayer is NOT safe for concurrent
// use, and the peaks RunBudget returns are valid only until its next call.
type Replayer struct {
	peaks []int
}

// NewReplayer returns an empty Replayer; its storage is allocated lazily.
func NewReplayer() *Replayer { return &Replayer{} }

// RunBudget returns schedule s's per-device peak live-activation counts
// and whether some device d holds more than budget[d] bytes of them for
// model cfg at rows sequences per micro-batch. budget[d] is device d's
// live activation-byte ceiling: its capacity minus its weight and
// optimizer bytes (memmodel.Weights).
func (r *Replayer) RunBudget(s *sched.Schedule, cfg nn.Config, rows int, budget []float64) (peaks []int, exceeded bool, err error) {
	if len(budget) < s.P {
		return nil, false, fmt.Errorf("memtrace: budget covers %d devices, schedule has %d", len(budget), s.P)
	}
	if rows <= 0 {
		return nil, false, fmt.Errorf("memtrace: rows must be positive, got %d", rows)
	}
	r.peaks = s.PeakActs(r.peaks)
	stageAct := memmodel.StageActBytes(s, cfg, rows)
	for d, n := range r.peaks {
		if float64(n)*stageAct > budget[d] {
			return r.peaks, true, nil
		}
	}
	return r.peaks, false, nil
}
