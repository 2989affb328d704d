package sched

import "fmt"

// shapeKey identifies one cached shape: a scheme instantiated on p
// devices. Mappings and the inflight-cap table depend only on this key —
// never on the micro-batch count — so one entry serves every B a sweep
// tries.
type shapeKey struct {
	sc Scheme
	p  int
}

// shapeEntry is everything shape-dependent that generation needs, built
// once per (scheme, P) and reused for every subsequent Generate call: the
// mapping (whose parity tables the engine reads directly), the
// per-(stage, chunk) inflight-cap table, and the scheme name (so the steady
// state never re-formats it).
type shapeEntry struct {
	name    string
	mapping *Mapping
	capTab  []int32 // per (stage, chunkClass); nil → unlimited
	capFn   func(stage, chunk int) int
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

// Generate compiles and validates the named scheme (ParseScheme) for p
// devices and b micro-batches, reusing the Generator's arenas. The returned
// Schedule is owned by the Generator and valid only until the next
// Generate.
func (g *Generator) Generate(scheme string, p, b int, opts ...Option) (*Schedule, error) {
	sc, err := ParseScheme(scheme)
	if err != nil {
		return nil, err
	}
	return g.generate(sc, p, b, opts...)
}

// generate is the shared compile path behind Generate and the one-shot
// scheme constructors.
func (g *Generator) generate(sc Scheme, p, b int, opts ...Option) (*Schedule, error) {
	if err := sc.CheckB(b); err != nil {
		return nil, err
	}
	ent := g.shape(sc, p)
	gp := &g.gp
	*gp = GenParams{
		B:            b,
		Mapping:      ent.mapping,
		Priority:     sc.row().priority,
		PhaseBarrier: sc.row().barrier,
		InflightCap:  ent.capFn,
		Tf:           1, Tb: 2, Tc: 0.05,
	}
	if sc.Split() {
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
		W:       ent.mapping.W,
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

// shape returns the cached entry for (sc, p), building it on first use.
func (g *Generator) shape(sc Scheme, p int) shapeEntry {
	k := shapeKey{sc: sc, p: p}
	if ent, ok := g.shapes[k]; ok {
		return ent
	}
	ent := buildShape(sc, p)
	if g.shapes == nil {
		g.shapes = map[shapeKey]shapeEntry{}
	}
	g.shapes[k] = ent
	return ent
}

// buildShape instantiates one scheme's shape-dependent state: the mapping,
// the cap table (the family's live-activation budget, evaluated once per
// (stage, chunk) instead of once per eligibility check) and the name.
func buildShape(sc Scheme, p int) shapeEntry {
	m := sc.mapping(p)
	ent := shapeEntry{name: sc.Name(), mapping: m}
	if sc.row().cap != nil {
		chunks := m.ChunksPerDevice()
		tab := make([]int32, m.S*chunks)
		for s := 0; s < m.S; s++ {
			c := int32(sc.Cap(p, s))
			for k := 0; k < chunks; k++ {
				tab[s*chunks+k] = c
			}
		}
		ent.capTab = tab
		ent.capFn = func(s, c int) int { return int(tab[s*chunks+c]) }
	}
	return ent
}
