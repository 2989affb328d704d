package sim

import (
	"strings"
	"testing"

	"repro/internal/costmodel"
	"repro/internal/sched"
)

// TestActivationTimelineMatchesPeak rebuilds every device's curve for every
// scheme of the golden table, split-backward zbh1 included: its peak must
// be the simulator's and it must return to zero.
func TestActivationTimelineMatchesPeak(t *testing.T) {
	for _, scheme := range allSchemes {
		s, err := sched.ByName(scheme, 4, 8)
		if err != nil {
			t.Fatal(err)
		}
		r, err := Run(s, costmodel.Uniform{Tf: 1, Tb: 2, Tc: 0.02}, DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		for d := 0; d < s.P; d++ {
			tl := ActivationTimeline(r, d)
			if got := PeakOf(tl); got != r.PeakActs[d] {
				t.Fatalf("%s device %d: timeline peak %d != recorded %d", s.Scheme, d, got, r.PeakActs[d])
			}
			// Curve must return to zero: every activation released.
			if tl[len(tl)-1].Live != 0 {
				t.Fatalf("%s device %d: %d activations leaked", s.Scheme, d, tl[len(tl)-1].Live)
			}
		}
	}
}

func TestSparkline(t *testing.T) {
	tl := []MemPoint{{0, 0}, {1, 2}, {2, 4}, {3, 0}}
	sp := Sparkline(tl, 8, 4)
	if len(sp) != 8 {
		t.Fatalf("sparkline %q", sp)
	}
	if !strings.Contains(sp, "@") {
		t.Fatalf("peak glyph missing: %q", sp)
	}
	if Sparkline(nil, 8, 4) != "" || Sparkline(tl, 0, 4) != "" {
		t.Fatal("degenerate inputs must yield empty string")
	}
}
