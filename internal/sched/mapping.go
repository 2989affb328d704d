package sched

import "fmt"

// Hosting records that a device holds the weights for one stage as a local
// chunk. ReplicaOf lists every stage a device hosts, in chunk order.
type Hosting struct {
	Stage int
	Chunk int
}

// Mapping assigns every (micro-batch, stage) pair to a device and a local
// chunk. For GPipe/DAPPLE/Hanayo the assignment is micro-independent; for
// Chimera it depends on the micro-batch's pipeline direction, which is why
// the interface takes the micro id.
type Mapping struct {
	Kind string
	P    int // devices
	S    int // stages
	W    int // waves (wave mapping only, else 0)

	deviceOf func(micro, stage int) int
	chunkOf  func(micro, stage int) int
	hosted   [][]Hosting // per device

	// WeightReplicas is how many devices host each stage's weights
	// (1 for all wave-family placements, 2 for bidirectional Chimera).
	WeightReplicas int
}

// Device returns the device executing stage for the given micro-batch.
func (m *Mapping) Device(micro, stage int) int { return m.deviceOf(micro, stage) }

// Chunk returns the local module rank for stage on its device.
func (m *Mapping) Chunk(micro, stage int) int { return m.chunkOf(micro, stage) }

// Hosted returns the stages hosted by device d in chunk order.
func (m *Mapping) Hosted(d int) []Hosting { return m.hosted[d] }

// ChunksPerDevice returns the number of model chunks each device stores.
func (m *Mapping) ChunksPerDevice() int { return len(m.hosted[0]) }

// hostedRows returns p empty per-device hosting rows of capacity per, carved
// from one exactly-sized allocation: every placement below hosts the same
// number of chunks on every device.
func hostedRows(p, per int) [][]Hosting {
	flat := make([]Hosting, p*per)
	rows := make([][]Hosting, p)
	for d := range rows {
		rows[d] = flat[d*per : d*per : (d+1)*per]
	}
	return rows
}

// StraightMapping is the classic placement: S = P, stage s on device s.
// GPipe and DAPPLE use it.
func StraightMapping(p int) *Mapping {
	if p <= 0 {
		panic("sched: StraightMapping needs p > 0")
	}
	hosted := hostedRows(p, 1)
	for d := 0; d < p; d++ {
		hosted[d] = append(hosted[d], Hosting{Stage: d, Chunk: 0})
	}
	return &Mapping{
		Kind: "straight", P: p, S: p,
		deviceOf:       func(_, s int) int { return s },
		chunkOf:        func(_, _ int) int { return 0 },
		hosted:         hosted,
		WeightReplicas: 1,
	}
}

// WaveStageDevice computes the wave-placement device of a stage: with
// S = 2·W·P stages, phase = s/P alternates direction; even phases run down
// the device list, odd phases run back up, so consecutive stages at a turn
// share a device (the swap construction of paper §3.2).
func WaveStageDevice(p, stage int) int {
	phase := stage / p
	pos := stage % p
	if phase%2 == 0 {
		return pos
	}
	return p - 1 - pos
}

// WaveMapping is Hanayo's placement with w waves on p devices: S = 2·w·p
// stages, each device hosting 2·w chunks. Every phase of p stages visits
// every device once, so a stage's chunk on its device is its phase. w = 1
// with two data-parallel replicas is exactly Chimera-wave (paper Fig 5).
func WaveMapping(p, w int) *Mapping {
	if p <= 0 || w <= 0 {
		panic(fmt.Sprintf("sched: WaveMapping needs p,w > 0, got p=%d w=%d", p, w))
	}
	s := 2 * w * p
	hosted := hostedRows(p, 2*w)
	for st := 0; st < s; st++ {
		d := WaveStageDevice(p, st)
		hosted[d] = append(hosted[d], Hosting{Stage: st, Chunk: st / p})
	}
	return &Mapping{
		Kind: "wave", P: p, S: s, W: w,
		deviceOf:       func(_, st int) int { return WaveStageDevice(p, st) },
		chunkOf:        func(_, st int) int { return st / p },
		hosted:         hosted,
		WeightReplicas: 1,
	}
}

// ChimeraMapping is the bidirectional placement (Li & Hoefler): S = P model
// stages stored twice. Micro-batches in the down pipe (m < B/2 by
// convention, decided by the caller via pipeOf) see stage s on device s;
// up-pipe micros see stage s on device P−1−s. Every device hosts chunk 0
// (down copy, stage d) and chunk 1 (up copy, stage P−1−d), doubling weight
// memory — the cost Hanayo's wave transformation removes.
func ChimeraMapping(p int, pipeOf func(micro int) int) *Mapping {
	if p <= 0 {
		panic("sched: ChimeraMapping needs p > 0")
	}
	hosted := hostedRows(p, 2)
	for d := 0; d < p; d++ {
		hosted[d] = append(hosted[d],
			Hosting{Stage: d, Chunk: 0},
			Hosting{Stage: p - 1 - d, Chunk: 1})
	}
	return &Mapping{
		Kind: "chimera", P: p, S: p,
		deviceOf: func(m, s int) int {
			if pipeOf(m) == 0 {
				return s
			}
			return p - 1 - s
		},
		chunkOf: func(m, _ int) int {
			if pipeOf(m) == 0 {
				return 0
			}
			return 1
		},
		hosted:         hosted,
		WeightReplicas: 2,
	}
}

// InterleavedMapping is Megatron-LM's interleaved 1F1B placement: S = v·p
// stages assigned round-robin, stage s on device s mod p as chunk s/p.
func InterleavedMapping(p, v int) *Mapping {
	if p <= 0 || v <= 0 {
		panic("sched: InterleavedMapping needs p,v > 0")
	}
	s := v * p
	hosted := hostedRows(p, v)
	for st := 0; st < s; st++ {
		d := st % p
		hosted[d] = append(hosted[d], Hosting{Stage: st, Chunk: st / p})
	}
	return &Mapping{
		Kind: "interleaved", P: p, S: s, W: 0,
		deviceOf:       func(_, st int) int { return st % p },
		chunkOf:        func(_, st int) int { return st / p },
		hosted:         hosted,
		WeightReplicas: 1,
	}
}
