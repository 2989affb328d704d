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
	for _, c := range []struct {
		scheme string
		tweaks []func(*genParams)
		want   string
	}{
		{"dapple", []func(*genParams){withCosts(nan, 2, 0.05)}, "Tf and Tb must be positive"},
		{"dapple", []func(*genParams){withCosts(1, nan, 0.05)}, "Tf and Tb must be positive"},
		{"dapple", []func(*genParams){withCosts(1, 2, nan)}, "Tf and Tb must be positive"},
		{"hanayo-w2", []func(*genParams){withCosts(inf, 2, 0.05)}, "Tf and Tb must be positive"},
		{"hanayo-w2", []func(*genParams){withCosts(1, inf, 0.05)}, "Tf and Tb must be positive"},
		{"chimera", []func(*genParams){withCosts(1, 2, inf)}, "Tf and Tb must be positive"},
		{"gpipe", []func(*genParams){withCosts(-inf, 2, 0.05)}, "Tf and Tb must be positive"},
		{"gpipe", []func(*genParams){withCosts(1, 2, -inf)}, "Tf and Tb must be positive"},
		{"zbh1", []func(*genParams){withTw(nan)}, "Tw must be positive"},
		{"zbh1", []func(*genParams){withTw(inf)}, "Tw must be positive"},
		{"zbh1", []func(*genParams){withTw(-inf)}, "Tw must be positive"},
		{"dapple", []func(*genParams){withCosts(1e307, 2, 0.05)}, "ordering costs overflow"},
	} {
		s, err := GenerateWith(NewGenerator(), c.scheme, 4, 4, c.tweaks...)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got schedule %v, error %v; want an error containing %q", c.scheme, s != nil, err, c.want)
		}
	}
	// Large finite costs that keep every instant finite still compile.
	if _, err := GenerateWith(NewGenerator(), "dapple", 4, 4, withCosts(1e300, 2e300, 1e299)); err != nil {
		t.Errorf("large finite costs: %v", err)
	}
}
