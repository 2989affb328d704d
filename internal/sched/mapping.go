package sched

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

// StraightMapping is the classic placement: S = P, stage s on device s.
// GPipe and DAPPLE use it.
func StraightMapping(p int) *Mapping { return Scheme{fam: famDAPPLE}.mapping(p) }

// WaveMapping is Hanayo's placement with w waves on p devices: S = 2·w·p
// stages, each device hosting 2·w chunks. Every phase of p stages visits
// every device once, so a stage's chunk on its device is its phase. w = 1
// with two data-parallel replicas is exactly Chimera-wave (paper Fig 5).
func WaveMapping(p, w int) *Mapping { return Scheme{fam: famHanayo, arg: w}.mapping(p) }

// ChimeraMapping is the bidirectional placement (Li & Hoefler): S = P model
// stages stored twice. Even micro-batches run the down pipe and see stage s
// on device s; odd ones run the up pipe and see stage s on device P−1−s.
// Every device hosts chunk 0 (down copy, stage d) and chunk 1 (up copy,
// stage P−1−d), doubling weight memory — the cost Hanayo's wave
// transformation removes.
func ChimeraMapping(p int) *Mapping { return Scheme{fam: famChimera}.mapping(p) }

// InterleavedMapping is Megatron-LM's interleaved 1F1B placement: S = v·p
// stages assigned round-robin, stage s on device s mod p as chunk s/p.
func InterleavedMapping(p, v int) *Mapping { return Scheme{fam: famInterleaved, arg: v}.mapping(p) }
