package sched

// The test helpers package sched_test shares with the package's own tests.
var (
	FuzzSchemes    = fuzzSchemes
	SchedulesEqual = schedulesEqual
	AsReference    = asReference
)

// GenParams is a compile's parameter block, as the seam's tweaks see it.
type GenParams = genParams

// generateWith is the compile path with the tests' seam in it: the family
// row's parameters, then each tweak in order, then the engine — the knobs
// (priority, cap table, barrier, ordering costs, EagerW, the reference
// path) that no scheme row sets.
func (g *Generator) generateWith(sc Scheme, p, b int, tweaks ...func(*genParams)) (*Schedule, error) {
	gp, err := g.params(sc, p, b)
	if err != nil {
		return nil, err
	}
	for _, tweak := range tweaks {
		tweak(gp)
	}
	return g.compile(gp)
}

// GenerateWith is Generate through the seam.
func GenerateWith(g *Generator, scheme string, p, b int, tweaks ...func(*GenParams)) (*Schedule, error) {
	sc, err := ParseScheme(scheme)
	if err != nil {
		return nil, err
	}
	return g.generateWith(sc, p, b, tweaks...)
}

// asReference runs the compile on the reference path.
func asReference(gp *genParams) { gp.reference = true }

// WaveMapping is Hanayo's placement with w waves on p devices.
func WaveMapping(p, w int) *Mapping { return Scheme{fam: famHanayo, arg: w}.mapping(p) }
