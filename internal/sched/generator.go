package sched

import (
	"fmt"
	"strconv"
)

// family enumerates the scheme families of the unified framework — each is
// a point in (placement, priority, cap, barrier) space (§3).
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

// shapeKey identifies one cached shape: a scheme family instantiated on p
// devices with its family parameter (waves for Hanayo, chunks per device
// for interleaved, 0 otherwise). Mappings and the inflight-cap table depend
// only on this key — never on the micro-batch count — so one entry serves
// every B a sweep tries.
type shapeKey struct {
	fam    family
	p, arg int
}

// shapeEntry is everything shape-dependent that generation needs, built
// once per (family, P, arg) and reused for every subsequent Generate call:
// the mapping (whose parity tables the engine reads directly), the
// per-(stage, chunk) inflight-cap table, and the scheme name (so the steady
// state never re-formats it).
type shapeEntry struct {
	name     string
	w        int // recorded as Schedule.W
	mapping  *Mapping
	capTab   []int32 // per (stage, chunkClass); nil → unlimited
	capFn    func(stage, chunk int) int
	priority Priority
	barrier  bool
	split    bool // zero-bubble family: backward split into B/W actions
}

// Generator is a reusable schedule compiler: it owns every buffer
// generation needs — the greedy scheduler's flat state and event heap, the
// one flat action arena every device's list is a row of, the dense
// validation arenas, and a cache of mappings and cap tables per shape — and
// grows them monotonically to the largest (P, B, S) shape seen, so repeated
// generation (an AutoTune sweep, a tuning service) allocates nothing in
// steady state.
//
// The zero value is ready to use. A Generator is NOT safe for concurrent
// use, and the *Schedule it returns (including Lists and their backing
// arrays) is owned by the Generator: it is valid only until the next
// Generate. Callers that need the schedule to outlive the next call must
// Clone it — or use the one-shot constructors (ByName, GPipe, Hanayo, …),
// which drive a fresh single-use Generator.
//
// Generation and validation are fused: the greedy engine's event-driven
// execution is itself the executability proof for the compute DAG (every
// task runs exactly once, on its mapped device, in dependency order,
// within its live-activation cap), each task is emitted with exactly one
// canonically-paired send/recv per cross-device edge it touches, plus the
// flush tail, by construction, and the remaining property — the batched
// rendezvous pattern cannot deadlock — is checked by the same dense
// replay that backs the standalone Validate, on Generator-owned arenas.
// A nil error therefore means exactly what ByName-then-Validate used to.
type Generator struct {
	shapes map[shapeKey]shapeEntry // held by value: no allocation per shape beyond its contents
	eng    engine
	val    validator
	gp     GenParams // per-call parameter block (a field so it never escapes)
	out    Schedule
}

// NewGenerator returns an empty Generator; arenas and shape caches are
// allocated lazily on first use and grown monotonically after that.
func NewGenerator() *Generator { return &Generator{} }

// Generate compiles and validates the named scheme for p devices and b
// micro-batches, reusing the Generator's arenas. Scheme names are those of
// ByName: "gpipe", "dapple"/"1f1b", "chimera", "chimera-wave", "gems",
// "zbh1", "hanayo-w<N>", "interleaved-v<N>". The returned Schedule is owned by the
// Generator and valid only until the next Generate.
func (g *Generator) Generate(scheme string, p, b int, opts ...Option) (*Schedule, error) {
	fam, arg, ok := parseScheme(scheme)
	if !ok {
		return nil, fmt.Errorf("sched: unknown scheme %q", scheme)
	}
	return g.generate(fam, arg, p, b, opts...)
}

// parseScheme resolves a scheme name to its family and parameter without
// allocating (the fmt.Sscanf predecessor parsed on every ByName call).
func parseScheme(name string) (family, int, bool) {
	switch name {
	case "gpipe":
		return famGPipe, 0, true
	case "dapple", "1f1b":
		return famDAPPLE, 0, true
	case "chimera":
		return famChimera, 0, true
	case "chimera-wave":
		return famChimeraWave, 1, true
	case "gems":
		return famGEMS, 0, true
	case "zbh1":
		return famZBH1, 0, true
	}
	if n, ok := suffixInt(name, "hanayo-w"); ok && n > 0 {
		return famHanayo, n, true
	}
	if n, ok := suffixInt(name, "interleaved-v"); ok && n > 0 {
		return famInterleaved, n, true
	}
	return 0, 0, false
}

// ComputeTasks is the number of compute actions Generate emits for the
// named scheme on p devices and b micro-batches, in closed form and without
// compiling anything: every micro-batch runs each of the S stages forward
// and backward, 2·b·S, or 3·b·S for the split-backward zbh1, whose backward
// is an input-grad and a weight-grad action. S is the true stage count: p
// for the straight and Chimera placements, 2·w·p for chimera-wave (w = 1)
// and hanayo-w<w>, v·p for interleaved-v<v>. It is the work weight the
// configuration search orders and shards its cells by. An unknown scheme
// or a non-positive shape is an error, not a guess.
func ComputeTasks(scheme string, p, b int) (int, error) {
	fam, arg, ok := parseScheme(scheme)
	if !ok {
		return 0, fmt.Errorf("sched: unknown scheme %q", scheme)
	}
	if p <= 0 || b <= 0 {
		return 0, fmt.Errorf("sched: %s needs positive p and b, got p=%d b=%d", scheme, p, b)
	}
	stages, perStage := p, 2
	switch fam {
	case famChimeraWave, famHanayo:
		stages = 2 * arg * p
	case famInterleaved:
		stages = arg * p
	case famZBH1:
		perStage = 3
	}
	return perStage * b * stages, nil
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

// generate is the shared compile path behind Generate and the one-shot
// scheme constructors.
func (g *Generator) generate(fam family, arg, p, b int, opts ...Option) (*Schedule, error) {
	switch fam {
	case famChimera:
		if b%2 != 0 {
			return nil, fmt.Errorf("sched: Chimera needs an even micro-batch count, got %d", b)
		}
	case famGEMS:
		if b%2 != 0 {
			return nil, fmt.Errorf("sched: GEMS needs an even micro-batch count, got %d", b)
		}
	}
	ent := g.shape(fam, p, arg)
	gp := &g.gp
	*gp = GenParams{
		B:            b,
		Mapping:      ent.mapping,
		Priority:     ent.priority,
		PhaseBarrier: ent.barrier,
		InflightCap:  ent.capFn,
		Tf:           1, Tb: 2, Tc: 0.05,
	}
	if ent.split {
		// Zero-bubble ordering costs: the fused backward (Tb = 2·Tf) splits
		// into equal input-grad and weight-grad halves, so B + W costs
		// exactly what the fused op did.
		gp.SplitBackward = true
		gp.Tb, gp.Tw = 1, 1
	}
	for _, o := range opts {
		o(gp)
	}
	dev, chk, capTab := &ent.mapping.dev, &ent.mapping.chk, ent.capTab
	if len(opts) > 0 {
		// Options mutate GenParams arbitrarily: route caps through whatever
		// closure is now installed, and if the mapping itself was swapped,
		// run the reference path, which asks the swapped mapping about every
		// (micro, stage) and assumes nothing about which device a task wakes.
		capTab = nil
		if gp.Mapping != ent.mapping {
			dev, chk = nil, nil
		}
	}
	if err := g.eng.run(gp, dev, chk, capTab); err != nil {
		return nil, fmt.Errorf("sched: %s: %w", ent.name, err)
	}
	g.out = Schedule{
		Scheme:  ent.name,
		P:       gp.Mapping.P,
		B:       gp.B,
		S:       gp.Mapping.S,
		W:       ent.w,
		Mapping: gp.Mapping,
		Lists:   g.eng.lists,
	}
	// Fused validation: only the rendezvous replay remains to be proven —
	// everything else holds by construction (see the type comment).
	if err := g.val.validate(&g.out, false); err != nil {
		return nil, fmt.Errorf("sched: %s: generated schedule invalid: %w", ent.name, err)
	}
	return &g.out, nil
}

// shape returns the cached entry for (fam, p, arg), building it on first
// use.
func (g *Generator) shape(fam family, p, arg int) shapeEntry {
	k := shapeKey{fam: fam, p: p, arg: arg}
	if ent, ok := g.shapes[k]; ok {
		return ent
	}
	ent := buildShape(fam, p, arg)
	if g.shapes == nil {
		g.shapes = map[shapeKey]shapeEntry{}
	}
	g.shapes[k] = ent
	return ent
}

// buildShape instantiates one scheme family's shape-dependent state: the
// mapping, the cap table and the scheme name.
// The cap formulas are the paper's live-activation budgets, unchanged from
// the closure-per-call predecessor — now evaluated once per (stage, chunk)
// into a table instead of once per eligibility check.
func buildShape(fam family, p, arg int) shapeEntry {
	ent := shapeEntry{priority: BackwardFirst}
	var capAt func(stage, chunk int) int
	switch fam {
	case famGPipe:
		// Straight placement, all forwards then all backwards per device,
		// unbounded live activations (paper Fig 3a).
		ent.name, ent.mapping = "gpipe", StraightMapping(p)
		ent.priority, ent.barrier = ForwardFirst, true
	case famDAPPLE, famAsync:
		// Straight placement, eager backwards, live activations capped at
		// P−s per stage (paper Fig 3b); the async variant is the same block
		// shape with no barrier between iterations (Fig 4b).
		ent.name, ent.mapping = "dapple", StraightMapping(p)
		if fam == famAsync {
			ent.name = "async-1f1b"
		}
		capAt = func(s, _ int) int { return p - s }
	case famChimera:
		// Bidirectional placement with two weight replicas (paper Fig 3c).
		// Live-activation budget per direction: a stage at depth d needs
		// ceil((P−d)/2) in steady state (each device serves two chunks) and
		// at most the per-pipe micro count during fill; the device total is
		// the P/2 + 1 of the paper's Fig 2 when B = P.
		ent.name, ent.mapping = "chimera", ChimeraMapping(p)
		capAt = func(s, chunk int) int {
			depth := s
			if chunk == 1 {
				depth = p - 1 - s
			}
			return max((p+1)/2, (p-depth+1)/2)
		}
	case famGEMS:
		// Chimera's placement with at most one micro-batch active per
		// direction (Jain et al.): very high bubble ratio, minimal
		// activation memory — exactly the trade GEMS makes (paper Fig 1).
		ent.name, ent.mapping = "gems", ChimeraMapping(p)
		capAt = func(_, _ int) int { return 1 }
	case famChimeraWave, famHanayo:
		// Wave placement with w waves: S = 2·w·P stages, eager backwards
		// (paper Fig 3d/3e, Fig 6). Live-activation budget: steady state
		// needs ceil((S−s)/(2W)) per stage (round-trip lifetime over
		// per-micro device work) and the fill phase needs up to P; the max
		// never binds when B ≤ P — the paper's operating point — and stops
		// the generator from front-loading forwards beyond P when B > P,
		// keeping Hanayo's memory at mainstream (1F1B) levels (§3.4).
		w := arg
		m := WaveMapping(p, w)
		ent.mapping, ent.w = m, w
		if fam == famChimeraWave {
			// Chimera after the wave transformation, i.e. Hanayo with a
			// single wave — the paper's evaluation baseline (§3.2, Fig 5).
			ent.name = "chimera-wave"
		} else {
			ent.name = "hanayo-w" + strconv.Itoa(w)
		}
		capAt = func(s, _ int) int {
			steady := (m.S - s + 2*w - 1) / (2 * w)
			return max(p+1, steady)
		}
	case famZBH1:
		// Zero-bubble ZB-H1-like: straight placement and eager (input-grad)
		// backwards like 1F1B, but each backward is split into B and W
		// halves. The input-grad chain's round trip from stage s is
		// 2·(S−1−s) hops of cost Tf+Tb = 2 against a steady-state device
		// period of Tf+Tb+Tw = 3, so the live-activation budget tightens
		// from 1F1B's P−s to ceil(2·(S−1−s)/3)+1 — the memory win the
		// split buys (activations release at B; the W halves fill the
		// bubbles without pinning anything).
		ent.name, ent.mapping = "zbh1", StraightMapping(p)
		ent.split = true
		capAt = func(s, _ int) int { return (2*(p-1-s)+2)/3 + 1 }
	case famInterleaved:
		// Megatron-LM's interleaved 1F1B with v chunks per device (§2.2).
		v := arg
		m := InterleavedMapping(p, v)
		ent.mapping = m
		ent.name = "interleaved-v" + strconv.Itoa(v)
		capAt = func(s, _ int) int { return max(p, (m.S-s+v-1)/v) }
	default:
		panic(fmt.Sprintf("sched: unknown scheme family %d", fam))
	}

	if capAt != nil {
		m := ent.mapping
		chunks := m.ChunksPerDevice()
		tab := make([]int32, m.S*chunks)
		for s := 0; s < m.S; s++ {
			for c := 0; c < chunks; c++ {
				tab[s*chunks+c] = int32(capAt(s, c))
			}
		}
		ent.capTab = tab
		ent.capFn = func(s, c int) int { return int(tab[s*chunks+c]) }
	}
	return ent
}
