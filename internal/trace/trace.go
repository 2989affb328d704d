// Package trace renders simulated schedules as the paper's Fig 3/5/6-style
// Gantt charts (ASCII), and exports CSV and Chrome-trace JSON for external
// viewers.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"repro/internal/sched"
	"repro/internal/sim"
)

// Gantt writes an ASCII timeline: one row per device, one column per time
// cell; forward cells show the micro-batch digit, backward cells show the
// digit dimmed with a trailing apostrophe style (uppercase letters beyond
// 9). Idle cells are '.'.
func Gantt(w io.Writer, r *sim.Result, cols int) {
	if cols <= 0 {
		cols = 80
	}
	scale := float64(cols) / r.Makespan
	fmt.Fprintf(w, "%s  P=%d B=%d S=%d  makespan=%.3g  bubble=%.1f%%\n",
		r.Schedule.Scheme, r.Schedule.P, r.Schedule.B, r.Schedule.S,
		r.Makespan, 100*r.BubbleRatio())
	for d, recs := range r.Records() {
		row := make([]byte, cols)
		for i := range row {
			row[i] = '.'
		}
		for _, rec := range recs {
			lo := int(rec.Start * scale)
			hi := int(rec.End * scale)
			if hi >= cols {
				hi = cols - 1
			}
			ch := microGlyph(int(rec.Action.Micro), rec.Action.Kind == sched.OpBackward)
			for i := lo; i <= hi; i++ {
				row[i] = ch
			}
		}
		fmt.Fprintf(w, "P%-2d |%s|\n", d, string(row))
	}
}

// microGlyph maps micro ids to digits (forward) / letters (backward).
func microGlyph(micro int, backward bool) byte {
	if backward {
		if micro < 26 {
			return byte('a' + micro)
		}
		return '#'
	}
	if micro < 10 {
		return byte('0' + micro)
	}
	if micro < 36 {
		return byte('A' + micro - 10)
	}
	return '*'
}

// Legend explains the Gantt glyphs.
func Legend() string {
	return "forward: digits 0-9/A-Z per micro-batch; backward: letters a-z; idle: '.'"
}

// CSV writes one row per compute record:
// device,kind,micro,stage,chunk,start,end.
func CSV(w io.Writer, r *sim.Result) error {
	if _, err := fmt.Fprintln(w, "device,kind,micro,stage,chunk,start,end"); err != nil {
		return err
	}
	for d, recs := range r.Records() {
		for _, rec := range recs {
			if _, err := fmt.Fprintf(w, "%d,%s,%d,%d,%d,%.9f,%.9f\n",
				d, rec.Action.Kind, rec.Action.Micro, rec.Action.Stage,
				rec.Action.Chunk, rec.Start, rec.End); err != nil {
				return err
			}
		}
	}
	return nil
}

// chromeEvent is the Chrome trace-event format ("X" complete events).
type chromeEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat"`
	Ph   string  `json:"ph"`
	TS   float64 `json:"ts"`  // microseconds
	Dur  float64 `json:"dur"` // microseconds
	PID  int     `json:"pid"`
	TID  int     `json:"tid"`
}

// Chrome writes a chrome://tracing-compatible JSON array.
func Chrome(w io.Writer, r *sim.Result) error {
	var events []chromeEvent
	for d, recs := range r.Records() {
		for _, rec := range recs {
			cat := "forward"
			if rec.Action.Kind == sched.OpBackward {
				cat = "backward"
			}
			events = append(events, chromeEvent{
				Name: fmt.Sprintf("%s m%d s%d", rec.Action.Kind, rec.Action.Micro, rec.Action.Stage),
				Cat:  cat,
				Ph:   "X",
				TS:   rec.Start * 1e6,
				Dur:  (rec.End - rec.Start) * 1e6,
				PID:  0,
				TID:  d,
			})
		}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// Summary renders a one-line metric row used by the experiment tables.
func Summary(r *sim.Result) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s makespan=%10.4g bubble=%6.2f%% zones[A=%.3g B=%.3g C=%.3g cross=%.3g]",
		r.Schedule.Scheme, r.Makespan, 100*r.BubbleRatio(),
		r.Zones[sim.ZoneA], r.Zones[sim.ZoneB], r.Zones[sim.ZoneC], r.Zones[sim.ZoneCross])
	return sb.String()
}
