package sched

import (
	"fmt"
	"math"
)

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
}

// Generator is a reusable schedule compiler: it owns every buffer
// generation needs — the greedy scheduler's flat state and per-device wake
// instants, the one flat action arena every device's list is a row of, and
// a cache of mappings and cap tables per shape — and grows them
// monotonically to the largest (P, B, S) shape seen, so repeated
// generation (an AutoTune sweep, a tuning service) allocates nothing in
// steady state.
//
// The zero value is ready to use. A Generator is NOT safe for concurrent
// use, and the *Schedule it returns (including Lists and their backing
// arrays) is owned by the Generator: it is valid only until the next
// Generate. Callers that need the schedule to outlive the next call must
// Clone it — or use the one-shot constructors (ByName, GPipe, Hanayo, …),
// which drive a fresh single-use Generator and Validate its output.
//
// Generate does not check its output. The greedy engine's time-driven
// execution is itself the executability proof for the compute DAG (every
// task runs exactly once, on its mapped device, in dependency order,
// within its live-activation cap), and each task is emitted with exactly
// one send/recv pair on the link of each cross-device edge it touches —
// receives before it, sends after it — plus the flush tail, by
// construction. That the lists run is proven where they run: a
// simulation walks them, refuses a compute reached before its input and
// reports a stall as an error wrapping ErrDeadlock, and sim.Validate is
// that walk for a caller that keeps a schedule to train on.
type Generator struct {
	shapes map[shapeKey]shapeEntry // held by value: no allocation per shape beyond its contents
	eng    engine
	gp     genParams // per-call parameter block (a field so it never escapes)
	out    Schedule
}

// NewGenerator returns an empty Generator; arenas and shape caches are
// allocated lazily on first use and grown monotonically after that.
func NewGenerator() *Generator { return &Generator{} }

// Generate compiles the named scheme (ParseScheme) for p devices and b
// micro-batches, reusing the Generator's arenas. The returned Schedule is
// owned by the Generator and valid only until the next Generate; its
// rendezvous pattern is proven by running it (see the type comment).
func (g *Generator) Generate(scheme string, p, b int) (*Schedule, error) {
	sc, err := ParseScheme(scheme)
	if err != nil {
		return nil, err
	}
	return g.generate(sc, p, b)
}

// generate is the shared compile path behind Generate and the one-shot
// scheme constructors: the family row's parameters, then the engine.
func (g *Generator) generate(sc Scheme, p, b int) (*Schedule, error) {
	gp, err := g.params(sc, p, b)
	if err != nil {
		return nil, err
	}
	return g.compile(gp)
}

// params checks the shape and fills the Generator's parameter block from
// the scheme's family row and its cached (scheme, P) entry.
func (g *Generator) params(sc Scheme, p, b int) (*genParams, error) {
	if p <= 0 {
		return nil, fmt.Errorf("sched: P must be positive, got %d", p)
	}
	if err := sc.CheckB(b); err != nil {
		return nil, err
	}
	if err := checkIDs(p, b, sc.Stages(p)); err != nil {
		return nil, err
	}
	ent, row := g.shape(sc, p), sc.row()
	g.gp = genParams{
		name:         ent.name,
		B:            b,
		Mapping:      ent.mapping,
		ForwardFirst: row.forwardFirst,
		PhaseBarrier: row.barrier,
		Cap:          ent.capTab,
		Tf:           1, Tb: 2, Tc: 0.05,
	}
	if row.split {
		// Zero-bubble ordering costs: the fused backward (Tb = 2·Tf) splits
		// into equal input-grad and weight-grad halves, so B + W costs
		// exactly what the fused op did.
		g.gp.SplitBackward = true
		g.gp.Tb, g.gp.Tw = 1, 1
	}
	return &g.gp, nil
}

// compile runs the engine on gp and wraps its lists in the Generator's
// owned Schedule.
func (g *Generator) compile(gp *genParams) (*Schedule, error) {
	if err := g.eng.run(gp); err != nil {
		return nil, fmt.Errorf("sched: %s: %w", gp.name, err)
	}
	m := gp.Mapping
	g.out = Schedule{Scheme: gp.name, P: m.P, B: gp.B, S: m.S, W: m.W, Mapping: m, Lists: g.eng.lists}
	return &g.out, nil
}

// checkIDs rejects a shape whose task ids (3·b·s at most, with the
// backward split) or devices do not fit in int32 — the engine's task ids
// and every field of an Action. It runs before anything is sized by the
// shape.
func checkIDs(p, b, s int) error {
	if p > math.MaxInt32 || s > 0 && b > math.MaxInt32/(3*s) {
		return fmt.Errorf("sched: P=%d, B=%d, S=%d exceeds the int32 range of task ids and devices", p, b, s)
	}
	return nil
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
	}
	return ent
}
