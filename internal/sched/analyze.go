package sched

import (
	"fmt"
	"io"
)

// Analysis summarizes a schedule's static structure: instruction mix,
// communication volume and balance — the numbers a practitioner checks
// before committing cluster time.
type Analysis struct {
	Scheme         string
	P, B, S, W     int
	ComputePerDev  []int // forward+backward ops per device
	SendsPerDev    []int
	RecvsPerDev    []int
	TotalTransfers int
	// WarmupForwards[d] counts forwards device d runs before its first
	// backward — the fill depth that dominates activation memory.
	WarmupForwards []int
	// CrossPairs counts device pairs that exchange in both directions
	// (the batched-communication requirement of §4.2).
	CrossPairs int
}

// Analyze computes the static summary.
func Analyze(s *Schedule) *Analysis {
	a := &Analysis{
		Scheme: s.Scheme, P: s.P, B: s.B, S: s.S, W: s.W,
		ComputePerDev:  make([]int, s.P),
		SendsPerDev:    make([]int, s.P),
		RecvsPerDev:    make([]int, s.P),
		WarmupForwards: make([]int, s.P),
	}
	type pair struct{ a, b int }
	dir := map[pair]bool{}
	for d, list := range s.Lists {
		seenBackward := false
		for _, op := range list {
			switch {
			case op.Kind.IsCompute():
				a.ComputePerDev[d]++
				if op.Kind == OpForward && !seenBackward {
					a.WarmupForwards[d]++
				}
				if op.Kind == OpBackward {
					seenBackward = true
				}
			case op.Kind == OpSendAct || op.Kind == OpSendGrad:
				a.SendsPerDev[d]++
				a.TotalTransfers++
				dir[pair{d, int(op.Peer)}] = true
			case op.Kind == OpRecvAct || op.Kind == OpRecvGrad:
				a.RecvsPerDev[d]++
			}
		}
	}
	counted := map[pair]bool{}
	for pr := range dir {
		rev := pair{pr.b, pr.a}
		if dir[rev] && !counted[pr] && !counted[rev] {
			a.CrossPairs++
			counted[pr] = true
		}
	}
	return a
}

// Balanced reports whether compute is identical on every device — true for
// every scheme in this framework (each device hosts an equal model share).
func (a *Analysis) Balanced() bool {
	for _, c := range a.ComputePerDev {
		if c != a.ComputePerDev[0] {
			return false
		}
	}
	return true
}

// Print renders the analysis as a table.
func (a *Analysis) Print(w io.Writer) {
	fmt.Fprintf(w, "%s: P=%d B=%d S=%d W=%d transfers=%d crossPairs=%d balanced=%v\n",
		a.Scheme, a.P, a.B, a.S, a.W, a.TotalTransfers, a.CrossPairs, a.Balanced())
	fmt.Fprintf(w, "%-6s %8s %6s %6s %8s\n", "dev", "compute", "sends", "recvs", "warmupF")
	for d := 0; d < a.P; d++ {
		fmt.Fprintf(w, "P%-5d %8d %6d %6d %8d\n",
			d, a.ComputePerDev[d], a.SendsPerDev[d], a.RecvsPerDev[d], a.WarmupForwards[d])
	}
}
