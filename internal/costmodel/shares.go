package costmodel

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/sched"
)

// SpeedBalancedShares builds the per-stage layer multipliers (Cost.Shares)
// that balance stage loads by measured device speed instead of device
// count: stage s receives a share proportional to the Flops of the device
// hosting it under scheme's closed-form placement, normalized so the
// shares sum to S (total layer count is preserved). On a uniform cluster
// every share is exactly 1; on a cluster with a straggler the straggler's
// stages shrink and the healthy devices' stages grow until per-stage
// forward times equalize. For the bidirectional placements (chimera,
// gems), where a stage runs on different devices in the down and up pipe,
// the share uses the mean speed of the two hosts — exact equalization is
// impossible there, but the mean minimizes the worst-stage imbalance.
//
// The result feeds Cost.Shares directly. It is an opt-in placement knob,
// deliberately outside the AutoTune sweep path: LowerBound certifies the
// uniform-stage configuration, so a shares-rebalanced Cost must be
// simulated directly rather than bound-and-pruned.
func SpeedBalancedShares(cl *cluster.Cluster, scheme string, p, b int) ([]float64, error) {
	if p <= 0 || p > cl.N() {
		return nil, fmt.Errorf("costmodel: shares need %d devices, cluster has %d", p, cl.N())
	}
	sc, err := sched.ParseScheme(scheme)
	if err != nil {
		return nil, err
	}
	if err := sc.CheckB(b); err != nil {
		return nil, err
	}
	shares := make([]float64, sc.Stages(p))
	total := 0.0
	for s := range shares {
		f := 0.0
		for pipe := 0; pipe < sc.Pipes(); pipe++ {
			f += cl.Flops(sc.Device(p, pipe, s))
		}
		f /= float64(sc.Pipes())
		shares[s] = f
		total += f
	}
	scale := float64(len(shares)) / total
	for s := range shares {
		shares[s] *= scale
	}
	return shares, nil
}
