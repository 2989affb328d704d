// Package sched implements Hanayo's unified pipeline-parallelism framework
// (paper §3–§4.1): stage placements (straight, wave-like with S = 2·W·P
// stages, bidirectional Chimera), a priority-driven list scheduler that
// generates the per-device action lists for every synchronous scheme the
// paper studies (GPipe, DAPPLE/1F1B, Chimera, Chimera-wave = Hanayo W=1,
// Hanayo with W waves, interleaved 1F1B), communication insertion with
// batched cross-communication groups, and a validator of a schedule's
// structure (that its lists run is proven by walking them: sim.Validate).
package sched

import "fmt"

// OpKind enumerates the action-list instruction set (§4.1). The paper breaks
// DeepSpeed-style instructions into finer granularity carrying the target
// device rank and local module (chunk) rank; we mirror that here. One byte
// holds every kind, which keeps an Action at 20 bytes.
type OpKind uint8

// Instruction kinds.
const (
	OpForward   OpKind = iota // run chunk forward for a micro-batch
	OpBackward                // run chunk backward for a micro-batch
	OpSendAct                 // send activation of (micro, stage) to Peer
	OpRecvAct                 // receive activation of (micro, stage) from Peer
	OpSendGrad                // send gradient of (micro, stage) to Peer
	OpRecvGrad                // receive gradient of (micro, stage) from Peer
	OpAllReduce               // data-parallel gradient all-reduce (flush)
	OpOptimStep               // optimizer step after the flush
	// Zero-bubble split backward (ZB-H1-like schemes): OpBackward stays the
	// fused op every classic scheme uses; split schemes emit the pair below
	// instead. The new kinds are appended after OpOptimStep so the numeric
	// values of every pre-existing kind — and thus every serialized schedule
	// and golden fixture — are unchanged.
	OpBackwardInput  // input-gradient half: critical path, releases the activation
	OpBackwardWeight // weight-gradient half: dependency-free bubble filler before the flush
)

// String names the op kind.
func (k OpKind) String() string {
	switch k {
	case OpForward:
		return "F"
	case OpBackward:
		return "B"
	case OpSendAct:
		return "SA"
	case OpRecvAct:
		return "RA"
	case OpSendGrad:
		return "SG"
	case OpRecvGrad:
		return "RG"
	case OpAllReduce:
		return "AR"
	case OpOptimStep:
		return "OPT"
	case OpBackwardInput:
		return "BI"
	case OpBackwardWeight:
		return "BW"
	}
	return fmt.Sprintf("OpKind(%d)", int(k))
}

// IsComm reports whether the op is a point-to-point transfer.
func (k OpKind) IsComm() bool {
	switch k {
	case OpSendAct, OpRecvAct, OpSendGrad, OpRecvGrad:
		return true
	}
	return false
}

// IsCompute reports whether the op occupies the device's compute resource.
func (k OpKind) IsCompute() bool {
	return k == OpForward || k == OpBackward || k == OpBackwardInput || k == OpBackwardWeight
}

// Action is one instruction of a worker's action list, packed to 20 bytes
// (a one-byte kind, then four int32 fields): compile writes and every
// executor reads one per instruction, so the list is the bulk of a
// schedule's memory traffic. The int32 fields bound every shape: a
// Generator refuses one whose 3·B·S task ids or P devices exceed
// math.MaxInt32, and ReadJSON refuses any op whose fields do not fit.
type Action struct {
	Kind  OpKind
	Micro int32 // micro-batch id
	Stage int32 // global stage id the payload/compute belongs to
	Chunk int32 // local module rank on this device (compute ops)
	Peer  int32 // peer device (comm ops), -1 otherwise
}

// String renders an action compactly, e.g. "F m2 s5" or "SA m0 s3->2".
func (a Action) String() string {
	if a.Kind.IsComm() {
		return fmt.Sprintf("%s m%d s%d p%d", a.Kind, a.Micro, a.Stage, a.Peer)
	}
	if a.Kind.IsCompute() {
		return fmt.Sprintf("%s m%d s%d c%d", a.Kind, a.Micro, a.Stage, a.Chunk)
	}
	return a.Kind.String()
}

// Schedule is a complete synchronous training iteration for one pipeline:
// per-device ordered action lists plus the placement metadata needed by the
// executors.
type Schedule struct {
	Scheme  string
	P       int // devices in the pipeline
	B       int // micro-batches per iteration
	S       int // pipeline stages
	W       int // waves (0 for non-wave schemes)
	Mapping *Mapping
	Lists   [][]Action // Lists[d] is device d's action list
}

// NumActions returns the total instruction count.
func (s *Schedule) NumActions() int {
	n := 0
	for _, l := range s.Lists {
		n += len(l)
	}
	return n
}

// CountKind returns how many actions of kind k appear across all devices.
func (s *Schedule) CountKind(k OpKind) int {
	n := 0
	for _, l := range s.Lists {
		for _, a := range l {
			if a.Kind == k {
				n++
			}
		}
	}
	return n
}

// Clone deep-copies the schedule (lists only; mapping is shared, immutable).
func (s *Schedule) Clone() *Schedule {
	c := *s
	c.Lists = make([][]Action, len(s.Lists))
	for i, l := range s.Lists {
		c.Lists[i] = append([]Action(nil), l...)
	}
	return &c
}
