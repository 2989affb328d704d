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
