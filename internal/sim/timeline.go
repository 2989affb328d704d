package sim

import "repro/internal/sched"

// MemPoint is one step of a device's live-activation curve.
type MemPoint struct {
	Time float64
	Live int
}

// ActivationTimeline reconstructs device d's live-activation count over
// time from the compute records, with sched.Schedule.PeakActs' rule: +1 at
// each forward end, −1 at the end of each fused backward or input-gradient
// half; a weight-gradient half is neutral. A device's records are in time
// order, so the curve is one walk over them. It starts at (0, 0) and is
// step-wise constant.
func ActivationTimeline(r *Result, d int) []MemPoint {
	out := []MemPoint{{Time: 0, Live: 0}}
	live := 0
	for _, rec := range r.Records()[d] {
		switch rec.Action.Kind {
		case sched.OpForward:
			live++
		case sched.OpBackward, sched.OpBackwardInput:
			live--
		default:
			continue
		}
		out = append(out, MemPoint{Time: rec.End, Live: live})
	}
	return out
}

// PeakOf returns the maximum live count of a timeline.
func PeakOf(tl []MemPoint) int {
	peak := 0
	for _, p := range tl {
		if p.Live > peak {
			peak = p.Live
		}
	}
	return peak
}

// Sparkline renders a timeline as an ASCII bar string with the given
// number of buckets, sampling the curve at bucket midpoints.
func Sparkline(tl []MemPoint, buckets int, makespan float64) string {
	if buckets <= 0 || makespan <= 0 || len(tl) == 0 {
		return ""
	}
	glyphs := []byte(" .:-=+*#%@")
	peak := PeakOf(tl)
	if peak == 0 {
		peak = 1
	}
	out := make([]byte, buckets)
	for i := 0; i < buckets; i++ {
		t := (float64(i) + 0.5) * makespan / float64(buckets)
		// Find the last point at or before t.
		live := 0
		for _, p := range tl {
			if p.Time > t {
				break
			}
			live = p.Live
		}
		idx := live * (len(glyphs) - 1) / peak
		out[i] = glyphs[idx]
	}
	return string(out)
}
