package sched

import (
	"fmt"
	"strconv"
)

// family enumerates the scheme families of the unified framework — each is
// a point in (placement, priority, cap, barrier) space (§3) and a row of
// the families table.
type family int

const (
	famGPipe family = iota
	famDAPPLE
	famChimera
	famChimeraWave
	famHanayo
	famInterleaved
	famGEMS
	famAsync
	famZBH1
)

// placement is how a family lays its stages out on the devices.
type placement int

const (
	placeStraight    placement = iota // S = P, stage s on device s
	placeBidir                        // S = P stored twice: even micros run down, odd micros up
	placeWave                         // S = 2·W·P, direction turning every P stages
	placeInterleaved                  // S = v·P, round-robin
)

// placementKinds are the Mapping.Kind strings (and the JSON "mapping"
// field) of the placements.
var placementKinds = [...]string{
	placeStraight:    "straight",
	placeBidir:       "chimera",
	placeWave:        "wave",
	placeInterleaved: "interleaved",
}

// familyRow is one family's point in the scheme space: everything the
// generator, the validator, the bound and the memory model know about it.
type familyRow struct {
	// name is the canonical scheme name — or, when unit is set, the prefix
	// of a parameterized one ("hanayo-w" + waves).
	name string
	// display is the figure label, or its prefix when unit is set
	// ("Hanayo-" + waves + "w").
	display, unit string
	arg           int // the parameter of a fixed name (chimera-wave's one wave)
	place         placement
	forwardFirst  bool // GPipe's priority: forwards before backwards; else backwards first (eager)
	barrier       bool // GPipe's flush: every forward before any backward
	split         bool // zero-bubble: backward split into input-grad and weight-grad actions
	// cap is the live-activation cap of a stage (forwards started minus
	// activations released); nil leaves it unbounded.
	cap func(p, stage int) int
}

var families = [...]familyRow{
	// Straight placement, all forwards then all backwards per device,
	// unbounded live activations (paper Fig 3a).
	famGPipe: {name: "gpipe", display: "GPipe", place: placeStraight, forwardFirst: true, barrier: true},
	// Straight placement, eager backwards (paper Fig 3b).
	famDAPPLE: {name: "dapple", display: "DAPPLE", place: placeStraight, cap: capOneFOneB},
	// Bidirectional placement with two weight replicas (paper Fig 3c).
	famChimera: {name: "chimera", display: "Chimera", place: placeBidir, cap: capChimera},
	// Chimera after the wave transformation, i.e. Hanayo with a single
	// wave — the paper's evaluation baseline (§3.2, Fig 5).
	famChimeraWave: {name: "chimera-wave", display: "Chimera-wave", arg: 1, place: placeWave, cap: capWave},
	// Wave placement with W waves, eager backwards (paper Fig 3d/3e, Fig 6).
	famHanayo: {name: "hanayo-w", display: "Hanayo-", unit: "w", place: placeWave, cap: capWave},
	// Megatron-LM's interleaved 1F1B with v chunks per device (§2.2).
	famInterleaved: {name: "interleaved-v", display: "Interleaved-", unit: "v", place: placeInterleaved, cap: capInterleaved},
	// Chimera's placement with at most one micro-batch active per direction
	// (Jain et al.): very high bubble ratio, minimal activation memory —
	// exactly the trade GEMS makes (paper Fig 1).
	famGEMS: {name: "gems", display: "GEMS", place: placeBidir, cap: func(int, int) int { return 1 }},
	// DAPPLE's block with no barrier between iterations (Fig 4b); reachable
	// only through AsyncOneFOneB, never by name.
	famAsync: {name: "async-1f1b", display: "async 1F1B", place: placeStraight, cap: capOneFOneB},
	// Zero-bubble ZB-H1-like: 1F1B with each backward split into B and W
	// halves (Qi et al.).
	famZBH1: {name: "zbh1", display: "ZB-H1", place: placeStraight, split: true, cap: capZBH1},
}

// capOneFOneB is 1F1B's P−s: a forward's activation lives for the round
// trip through the P−1−s stages below it, one micro-batch per device slot.
func capOneFOneB(p, s int) int { return p - s }

// capChimera is ⌈P/2⌉ per direction: a stage at depth d needs ⌈(P−d)/2⌉
// in steady state (each device serves two chunks), which depth 0 bounds.
func capChimera(p, _ int) int { return (p + 1) / 2 }

// capWave is P+1: the fill phase needs up to P, the steady state only
// ⌈(S−s)/(2W)⌉ ≤ P, so the cap never binds when B ≤ P — the paper's
// operating point — and stops the generator front-loading forwards when
// B > P, keeping Hanayo's memory at 1F1B levels (§3.4).
func capWave(p, _ int) int { return p + 1 }

// capInterleaved is P: the steady state needs ⌈(S−s)/v⌉ ≤ P.
func capInterleaved(p, _ int) int { return p }

// capZBH1 is ⌈2(P−1−s)/3⌉+1: the input-grad chain's round trip from stage
// s is 2·(P−1−s) hops of cost Tf+Tb = 2 against a steady-state device
// period of Tf+Tb+Tw = 3, tighter than 1F1B's P−s — the memory win the
// split buys (activations release at B; the W halves fill the bubbles
// without pinning anything).
func capZBH1(p, s int) int { return (2*(p-1-s)+2)/3 + 1 }

// Scheme is one resolved scheme name: a family and its parameter (waves
// for Hanayo and chimera-wave, chunks per device for interleaved, 0
// otherwise). It is the one descriptor every consumer reads — the
// generator's placement, caps and priority, the validator's op set, the
// analytic bound's closed-form placement, the memory model's caps and the
// figures' labels — and it allocates nothing. The zero value is gpipe.
type Scheme struct {
	fam family
	arg int
}

// ParseScheme resolves a scheme name: "gpipe", "dapple" (alias "1f1b"),
// "chimera", "chimera-wave", "gems", "zbh1", "hanayo-w<N>" and
// "interleaved-v<N>" with N > 0. It is the only place a name maps to a
// family, and allocates only its error.
func ParseScheme(name string) (Scheme, error) {
	if name == "1f1b" {
		return Scheme{fam: famDAPPLE}, nil
	}
	for f := range families {
		r := &families[f]
		switch {
		case family(f) == famAsync:
		case r.unit == "":
			if name == r.name {
				return Scheme{fam: family(f), arg: r.arg}, nil
			}
		default:
			if n, ok := suffixInt(name, r.name); ok && n > 0 {
				return Scheme{fam: family(f), arg: n}, nil
			}
		}
	}
	return Scheme{}, fmt.Errorf("sched: unknown scheme %q", name)
}

// suffixInt parses name as prefix followed by a decimal integer, rejecting
// anything else (including trailing garbage and empty suffixes).
func suffixInt(name, prefix string) (int, bool) {
	if len(name) <= len(prefix) || name[:len(prefix)] != prefix {
		return 0, false
	}
	n := 0
	for i := len(prefix); i < len(name); i++ {
		c := name[i]
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int(c-'0')
		if n > 1<<20 { // caps parse at a shape no cluster reaches
			return 0, false
		}
	}
	return n, true
}

func (s Scheme) row() *familyRow { return &families[s.fam] }

// Name is the canonical scheme name ("1f1b" resolves to "dapple").
func (s Scheme) Name() string {
	r := s.row()
	if r.unit == "" {
		return r.name
	}
	return r.name + strconv.Itoa(s.arg)
}

// Display is the scheme's figure label: "Hanayo-2w", "Chimera-wave" (not
// "Hanayo-1w", though it is one wave), "ZB-H1".
func (s Scheme) Display() string {
	r := s.row()
	if r.unit == "" {
		return r.display
	}
	return r.display + strconv.Itoa(s.arg) + r.unit
}

// Stages is the stage count S on p devices: p for the straight and
// bidirectional placements, 2·W·p for the wave family, v·p interleaved.
func (s Scheme) Stages(p int) int {
	switch s.row().place {
	case placeWave:
		return 2 * s.arg * p
	case placeInterleaved:
		return s.arg * p
	}
	return p
}

// Pipes is how many pipes the micro-batches split into: 2 for the
// bidirectional placements (pipe = micro parity), 1 otherwise. It is also
// how many devices host each stage's weights.
func (s Scheme) Pipes() int {
	if s.row().place == placeBidir {
		return 2
	}
	return 1
}

// Micros is how many of b micro-batches run in the given pipe: the even
// micros take pipe 0, the odd ones pipe 1.
func (s Scheme) Micros(pipe, b int) int {
	switch {
	case s.Pipes() == 1:
		return b
	case pipe == 0:
		return (b + 1) / 2
	}
	return b / 2
}

// Device is the device that runs stage for the micro-batches of pipe on p
// devices.
func (s Scheme) Device(p, pipe, stage int) int {
	switch s.row().place {
	case placeBidir:
		if pipe == 1 {
			return p - 1 - stage
		}
	case placeWave:
		return waveStageDevice(p, stage)
	case placeInterleaved:
		return stage % p
	}
	return stage
}

// Chunk is stage's local chunk on its device for pipe: the pipe for the
// bidirectional placements (chunk 0 holds the down copy, chunk 1 the up
// copy), the stage's phase of p for the wave and interleaved ones.
func (s Scheme) Chunk(p, pipe, stage int) int {
	switch s.row().place {
	case placeBidir:
		return pipe
	case placeWave, placeInterleaved:
		return stage / p
	}
	return 0
}

// waveStageDevice is the wave placement: phase = s/P alternates direction;
// even phases run down the device list, odd phases run back up, so
// consecutive stages at a turn share a device (the swap construction of
// paper §3.2).
func waveStageDevice(p, stage int) int {
	if (stage/p)%2 == 0 {
		return stage % p
	}
	return p - 1 - stage%p
}

// Split reports whether the scheme runs split backwards — an input-grad
// and a weight-grad action instead of the fused backward.
func (s Scheme) Split() bool { return s.row().split }

// Cap is the live-activation cap of stage on p devices — the same for
// every chunk that hosts it — or 0 when unbounded (GPipe).
func (s Scheme) Cap(p, stage int) int {
	if c := s.row().cap; c != nil {
		return c(p, stage)
	}
	return 0
}

// CheckB rejects a micro-batch count the placement cannot split: the
// bidirectional placements need an even b, one half per pipe.
func (s Scheme) CheckB(b int) error {
	if s.Pipes() == 2 && b%2 != 0 {
		return fmt.Errorf("sched: %s needs an even micro-batch count, got %d", s.Display(), b)
	}
	return nil
}

// ComputeTasks is the number of compute actions Generate emits on p
// devices and b micro-batches, in closed form: every micro-batch runs each
// of the S stages forward and backward, 2·b·S, or 3·b·S when the backward
// is split. It is the work weight the configuration search orders and
// shards its cells by; a non-positive shape weighs 0.
func (s Scheme) ComputeTasks(p, b int) int {
	if p <= 0 || b <= 0 {
		return 0
	}
	per := 2
	if s.Split() {
		per = 3
	}
	return per * b * s.Stages(p)
}

// mapping builds the scheme's placement on p devices — both parity tables
// in one exactly-sized block, the hosting rows in another — in one loop
// placing every (micro parity, stage) through Device and Chunk and hosting
// each pipe's stages.
func (s Scheme) mapping(p int) *Mapping {
	st, kind := s.Stages(p), placementKinds[s.row().place]
	if p <= 0 || st <= 0 {
		panic(fmt.Sprintf("sched: %s placement needs p and its parameter > 0, got p=%d S=%d", kind, p, st))
	}
	pipes, w := s.Pipes(), 0
	per := st * pipes / p // chunks per device
	if s.row().place == placeWave {
		w = s.arg
	}
	block := make([]int32, 4*st)
	row := func(i int) []int32 { return block[i*st : (i+1)*st : (i+1)*st] }
	m := &Mapping{Kind: kind, P: p, S: st, W: w,
		dev: [2][]int32{row(0), row(1)}, chk: [2][]int32{row(2), row(3)},
		hosted: make([]Hosting, p*per), WeightReplicas: pipes}
	for parity := 0; parity < 2; parity++ {
		pipe := parity % pipes
		for stage := 0; stage < st; stage++ {
			d, c := s.Device(p, pipe, stage), s.Chunk(p, pipe, stage)
			m.dev[parity][stage], m.chk[parity][stage] = int32(d), int32(c)
			if parity == pipe {
				m.hosted[d*per+c] = Hosting{Stage: stage, Chunk: c}
			}
		}
	}
	return m
}
