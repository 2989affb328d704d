package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one timed interval recorded by the benchmark around a call into
// a layer's public API. Times are nanoseconds since the tracer started.
// parent indexes the span that caused this one (-1 for an op's root) and
// op numbers the closed-loop operation the span belongs to.
type span struct {
	name       string
	start, end int64
	parent     int
	op         int
	lane       int // Chrome-trace lane; 0 means the nesting depth
}

// tracer keeps spans in memory for one traced pass. A nil *tracer is the
// untraced pass: every method is a no-op, so workload code brackets layer
// calls unconditionally. The single closed-loop client drives it from one
// goroutine; spans measured elsewhere (runtime.Result.Records) are added
// after the fact with add.
type tracer struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 {
	if t == nil {
		return 0
	}
	return int64(time.Since(t.t0))
}

// begin opens a span under the innermost open one and returns its index.
func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, start: t.now(), parent: parent, op: t.op})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

// end closes the innermost open span, which must be id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = t.now()
	t.stack = t.stack[:len(t.stack)-1]
}

// add records a span measured by the program itself (offsets in seconds
// from base) as a child of parent, drawn in its own lane.
func (t *tracer) add(name string, parent, lane int, base int64, startS, endS float64) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{name: name, parent: parent, op: t.op, lane: lane,
		start: base + int64(startS*1e9), end: base + int64(endS*1e9)})
}

// nextOp starts the next operation's span group.
func (t *tracer) nextOp() {
	if t != nil {
		t.op++
	}
}

// childMS is the time, in milliseconds, covered by the spans id caused
// directly: what is left of id's own duration is its self time.
func (t *tracer) childMS(id int) float64 {
	if t == nil {
		return 0
	}
	var sum int64
	for _, s := range t.spans[id+1:] {
		if s.parent == id {
			sum += s.end - s.start
		}
	}
	return float64(sum) / 1e6
}

// perOp sums each span name's durations within every op and returns, per
// name, one total per op in milliseconds. The spans the metrics read are
// leaves or whole ops, so nothing is counted twice; parent links serve the
// Chrome-trace viewer.
func (t *tracer) perOp() map[string][]float64 {
	out := map[string][]float64{}
	if t == nil {
		return out
	}
	type opKey struct {
		name string
		op   int
	}
	sums := map[opKey]float64{}
	for _, s := range t.spans {
		sums[opKey{s.name, s.op}] += float64(s.end-s.start) / 1e6
	}
	for k, v := range sums {
		out[k.name] = append(out[k.name], v)
	}
	return out
}

// writeChrome writes the spans as Chrome-trace JSON (chrome://tracing,
// Perfetto): one complete event per span, one lane per nesting depth
// unless the span names its own.
func (t *tracer) writeChrome(dir, workload string) error {
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]int `json:"args"`
	}
	depth := make([]int, len(t.spans))
	events := make([]event, len(t.spans))
	for i, s := range t.spans {
		if s.parent >= 0 {
			depth[i] = depth[s.parent] + 1
		}
		tid := depth[i]
		if s.lane != 0 {
			tid = s.lane
		}
		events[i] = event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3,
			Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: tid,
			Args: map[string]int{"op_id": s.op, "parent": s.parent}}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	raw, err := json.Marshal(map[string]any{"traceEvents": events})
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, workload+".trace.json"), raw, 0o644)
}
