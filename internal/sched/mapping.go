package sched

import "fmt"

// Hosting records that a device holds the weights for one stage as a local
// chunk. ReplicaOf lists every stage a device hosts, in chunk order.
type Hosting struct {
	Stage int
	Chunk int
}

// Mapping assigns every (micro-batch, stage) pair to a device and a local
// chunk. Every placement depends on the micro-batch id through at most its
// parity — GPipe/DAPPLE/Hanayo not at all, Chimera through the pipeline
// direction of micro m, m % 2 — so a mapping is its two parity tables,
// indexed (micro&1, stage) and filled once by the constructor: the lookups
// generation, validation and the runtime make per task are array reads.
type Mapping struct {
	Kind string
	P    int // devices
	S    int // stages
	W    int // waves (wave mapping only, else 0)

	dev, chk [2][]int32 // per (micro&1, stage): device, local chunk
	hosted   []Hosting  // per device, chunk order: device d's row is hosted[d*per:(d+1)*per]

	// WeightReplicas is how many devices host each stage's weights
	// (1 for all wave-family placements, 2 for bidirectional Chimera).
	WeightReplicas int
}

// Device returns the device executing stage for the given micro-batch.
func (m *Mapping) Device(micro, stage int) int { return int(m.dev[micro&1][stage]) }

// Chunk returns the local module rank for stage on its device.
func (m *Mapping) Chunk(micro, stage int) int { return int(m.chk[micro&1][stage]) }

// Hosted returns the stages hosted by device d in chunk order.
func (m *Mapping) Hosted(d int) []Hosting {
	per := m.ChunksPerDevice()
	return m.hosted[d*per : (d+1)*per : (d+1)*per]
}

// ChunksPerDevice returns the number of model chunks each device stores:
// every placement hosts the same number on every device.
func (m *Mapping) ChunksPerDevice() int { return len(m.hosted) / m.P }

// newMapping allocates a mapping of s stages over p devices hosting per
// chunks each: both parity tables in one exactly-sized block, the hosting
// rows in another. The constructors fill them through place and host.
func newMapping(kind string, p, s, w, per, replicas int) *Mapping {
	block := make([]int32, 4*s)
	row := func(i int) []int32 { return block[i*s : (i+1)*s : (i+1)*s] }
	return &Mapping{Kind: kind, P: p, S: s, W: w,
		dev: [2][]int32{row(0), row(1)}, chk: [2][]int32{row(2), row(3)},
		hosted: make([]Hosting, p*per), WeightReplicas: replicas}
}

// place runs stage st on device d as chunk c for the micro-batches of the
// given parity.
func (m *Mapping) place(parity, st, d, c int) {
	m.dev[parity][st], m.chk[parity][st] = int32(d), int32(c)
}

// host records stage st as device d's chunk c.
func (m *Mapping) host(st, d, c int) {
	m.hosted[d*m.ChunksPerDevice()+c] = Hosting{Stage: st, Chunk: c}
}

// placeAll places stage st on device d as chunk c for every micro-batch.
func (m *Mapping) placeAll(st, d, c int) {
	m.place(0, st, d, c)
	m.place(1, st, d, c)
	m.host(st, d, c)
}

// StraightMapping is the classic placement: S = P, stage s on device s.
// GPipe and DAPPLE use it.
func StraightMapping(p int) *Mapping {
	if p <= 0 {
		panic("sched: StraightMapping needs p > 0")
	}
	m := newMapping("straight", p, p, 0, 1, 1)
	for d := 0; d < p; d++ {
		m.placeAll(d, d, 0)
	}
	return m
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
	m := newMapping("wave", p, 2*w*p, w, 2*w, 1)
	for st := 0; st < m.S; st++ {
		m.placeAll(st, WaveStageDevice(p, st), st/p)
	}
	return m
}

// ChimeraMapping is the bidirectional placement (Li & Hoefler): S = P model
// stages stored twice. Even micro-batches run the down pipe and see stage s
// on device s; odd ones run the up pipe and see stage s on device P−1−s.
// Every device hosts chunk 0 (down copy, stage d) and chunk 1 (up copy,
// stage P−1−d), doubling weight memory — the cost Hanayo's wave
// transformation removes.
func ChimeraMapping(p int) *Mapping {
	if p <= 0 {
		panic("sched: ChimeraMapping needs p > 0")
	}
	m := newMapping("chimera", p, p, 0, 2, 2)
	for d := 0; d < p; d++ {
		m.place(0, d, d, 0)
		m.place(1, d, p-1-d, 1)
		m.host(d, d, 0)
		m.host(p-1-d, d, 1)
	}
	return m
}

// InterleavedMapping is Megatron-LM's interleaved 1F1B placement: S = v·p
// stages assigned round-robin, stage s on device s mod p as chunk s/p.
func InterleavedMapping(p, v int) *Mapping {
	if p <= 0 || v <= 0 {
		panic("sched: InterleavedMapping needs p,v > 0")
	}
	m := newMapping("interleaved", p, v*p, 0, v, 1)
	for st := 0; st < m.S; st++ {
		m.placeAll(st, st%p, st/p)
	}
	return m
}
