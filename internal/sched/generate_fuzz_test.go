package sched

import (
	"math"
	"strings"
	"testing"
)

// fuzzSchemes is every name FuzzGenerate draws from: the golden table plus
// an eight-wave Hanayo and a three-chunk interleaving.
var fuzzSchemes = append([]string{"hanayo-w8", "interleaved-v3"}, generatorSchemes...)

// TestGenerateRejectsNonFiniteCosts: NaN and ±Inf ordering costs are
// rejected up front with the cost error — never a stall blamed on the
// scheme, and never a schedule ordered by infinite durations — and so are
// finite costs large enough for an instant to overflow.
func TestGenerateRejectsNonFiniteCosts(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	withTw := func(tw float64) Option { return func(p *GenParams) { p.Tw = tw } }
	for _, c := range []struct {
		scheme string
		opts   []Option
		want   string
	}{
		{"dapple", []Option{withCosts(nan, 2, 0.05)}, "Tf and Tb must be positive"},
		{"dapple", []Option{withCosts(1, nan, 0.05)}, "Tf and Tb must be positive"},
		{"dapple", []Option{withCosts(1, 2, nan)}, "Tf and Tb must be positive"},
		{"hanayo-w2", []Option{withCosts(inf, 2, 0.05)}, "Tf and Tb must be positive"},
		{"hanayo-w2", []Option{withCosts(1, inf, 0.05)}, "Tf and Tb must be positive"},
		{"chimera", []Option{withCosts(1, 2, inf)}, "Tf and Tb must be positive"},
		{"gpipe", []Option{withCosts(-inf, 2, 0.05)}, "Tf and Tb must be positive"},
		{"gpipe", []Option{withCosts(1, 2, -inf)}, "Tf and Tb must be positive"},
		{"zbh1", []Option{withTw(nan)}, "Tw must be positive"},
		{"zbh1", []Option{withTw(inf)}, "Tw must be positive"},
		{"zbh1", []Option{withTw(-inf)}, "Tw must be positive"},
		{"dapple", []Option{withCosts(1e307, 2, 0.05)}, "ordering costs overflow"},
	} {
		s, err := NewGenerator().Generate(c.scheme, 4, 4, c.opts...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got schedule %v, error %v; want an error containing %q", c.scheme, s != nil, err, c.want)
		}
	}
	// Large finite costs that keep every instant finite still compile.
	if _, err := NewGenerator().Generate("dapple", 4, 4, withCosts(1e300, 2e300, 1e299)); err != nil {
		t.Errorf("large finite costs: %v", err)
	}
}

// FuzzGenerate: for any scheme, P ∈ [0, 16], B ∈ [0, 24], ordering costs
// and EagerW, Generate either returns a schedule that Validate accepts and
// that equals, action for action, the closure-mapped reference path's — or
// an error, and an error only for an input the engine rejects up front (P
// or B out of range, a cost that is not positive and finite, costs large
// enough to overflow an instant). It never ends in the stall guard.
func FuzzGenerate(f *testing.F) {
	f.Add(uint8(6), uint8(4), uint8(8), 1.0, 2.0, 0.05, 1.0, false)        // hanayo-w1 at the default costs
	f.Add(uint8(11), uint8(8), uint8(16), 1.0, 1.0, 0.0, 1.0, true)        // zbh1, EagerW, free transfers
	f.Add(uint8(0), uint8(16), uint8(24), 1.0, 1.5, 0.0, 1.0, false)       // hanayo-w8, many ties
	f.Add(uint8(4), uint8(4), uint8(3), 1.0, 2.0, 0.05, 1.0, false)        // chimera at odd B
	f.Add(uint8(3), uint8(4), uint8(4), math.NaN(), 2.0, 0.05, 1.0, false) // dapple, NaN Tf
	f.Add(uint8(7), uint8(4), uint8(4), 1.0, 2.0, math.Inf(1), 1.0, false) // hanayo-w2, +Inf Tc
	f.Add(uint8(1), uint8(0), uint8(4), 1.0, 2.0, 0.05, 1.0, false)        // interleaved-v3, P = 0
	f.Add(uint8(7), uint8(8), uint8(8), 1e-20, 1e10, 0.05, 1.0, false)     // hanayo-w2, Tf vanishing: the single-instant fallback
	f.Add(uint8(11), uint8(8), uint8(16), 1.0, 2.0, 0.05, 0.01, true)      // zbh1, Tw ≪ min(Tf, Tb): several weight halves per window
	f.Fuzz(func(t *testing.T, idx, p, b uint8, tf, tb, tc, tw float64, eagerW bool) {
		scheme := fuzzSchemes[int(idx)%len(fuzzSchemes)]
		P, B := int(p%17), int(b%25)
		costs := func(gp *GenParams) {
			gp.Tf, gp.Tb, gp.Tc, gp.Tw, gp.EagerW = tf, tb, tc, tw, eagerW
		}
		s, err := NewGenerator().Generate(scheme, P, B, costs)
		sc, _ := ParseScheme(scheme)
		modest := func(v float64) bool { return v < 1e300 } // false for NaN and +Inf
		accepted := P > 0 && B > 0 && sc.CheckB(B) == nil &&
			tf > 0 && tb > 0 && tc >= 0 && modest(tf) && modest(tb) && modest(tc) &&
			(!sc.Split() || (tw > 0 && modest(tw)))
		if err != nil {
			if accepted || strings.Contains(err.Error(), "stalled") {
				t.Fatalf("%s P=%d B=%d Tf=%g Tb=%g Tc=%g Tw=%g EagerW=%v: %v",
					scheme, P, B, tf, tb, tc, tw, eagerW, err)
			}
			return
		}
		if err := Validate(s); err != nil {
			t.Fatalf("%s P=%d B=%d: generated schedule fails Validate: %v", scheme, P, B, err)
		}
		want, err := NewGenerator().Generate(scheme, P, B, costs, closureMapping)
		if err != nil {
			t.Fatalf("%s P=%d B=%d: reference path: %v", scheme, P, B, err)
		}
		schedulesEqual(t, scheme, s, want)
	})
}
