package main

import (
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"regexp"
	"testing"
)

func TestPercentileAndQuartiles(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {50, 3}, {100, 5}, {25, 2}, {90, 4.6}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 5 {
		t.Error("percentile sorted its argument in place")
	}
	q1, med, q3 := quartiles([]float64{1, 2, 3, 4})
	if q1 != 1.75 || med != 2.5 || q3 != 3.25 {
		t.Errorf("quartiles(1..4) = %v %v %v, want 1.75 2.5 3.25", q1, med, q3)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %v, want 0", got)
	}
	if got := percentile([]float64{7}, 90); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "op_ms_p50", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ops_per_s", Better: "higher", Bound: 0.10}
	exact := metricDef{Name: "core.sims_per_op", Exact: true}
	for _, c := range []struct {
		def          metricDef
		a, b, spread float64
		want         string
	}{
		{lower, 100, 105, 0, "within-bound"},
		{lower, 100, 95, 0, "within-bound"},
		{lower, 100, 111, 0, "worse"},
		{lower, 100, 89, 0, "better"},
		{higher, 100, 89, 0, "worse"},
		{higher, 100, 111, 0, "better"},
		{lower, 100, 101, 0.12, "unresolved"}, // spread wider than the bound: never "unchanged"
		{lower, 100, 150, 0.12, "unresolved"},
		{lower, 100, 105, 0.09, "within-bound"},
		{exact, 21, 21, 0, "within-bound"},
		{exact, 21, 22, 0, "differs"},
		{lower, 0, 0, 0, "within-bound"},
		{lower, 0, 1, 0, "unresolved"},
	} {
		if got := verdict(c.def, c.a, c.b, c.spread); got != c.want {
			t.Errorf("verdict(%s, %v -> %v, spread %v) = %q, want %q", c.def.Name, c.a, c.b, c.spread, got, c.want)
		}
	}
}

// A set's spread is the interquartile range of its passes over their
// median, for every end-to-end metric, and it decides "unresolved".
func TestCompareSuitesSpreadAcrossPasses(t *testing.T) {
	set := func(values ...float64) *suiteFile {
		f := &suiteFile{}
		for _, v := range values {
			m := newMetrics(endToEnd)
			for _, d := range endToEnd {
				m.set(d.Name, v)
			}
			f.Passes = append(f.Passes, detail{Workload: "sweep_cold", Output: output{Correct: true, Metrics: m.fill()}})
		}
		return f
	}
	if got := spreadOf([]float64{90, 95, 100, 105, 110}); math.Abs(got-0.10) > 1e-12 {
		t.Errorf("spread of 90..110 = %v, want 0.10", got)
	}
	if got := spreadOf([]float64{42}); got != 0 {
		t.Errorf("spread of one value = %v, want 0", got)
	}
	a := set(98, 99, 100, 101, 102)
	for _, c := range []struct {
		b    *suiteFile
		want map[string]string // by Better
	}{
		{set(138, 139, 140, 141, 142), map[string]string{"lower": "worse", "higher": "better"}},
		{set(99, 100, 101, 102, 103), map[string]string{"lower": "within-bound", "higher": "within-bound"}},
		// Passes a quarter apart around the same 40 % shift: the shift is not resolved.
		{set(100, 120, 140, 160, 180), map[string]string{"lower": "unresolved", "higher": "unresolved"}},
	} {
		cs := compareSuites(a, c.b)
		if len(cs) != len(endToEnd) {
			t.Fatalf("%d comparisons, want one per end-to-end metric (%d)", len(cs), len(endToEnd))
		}
		for i, got := range cs {
			if want := c.want[endToEnd[i].Better]; got.Verdict != want {
				t.Errorf("%s: %v -> %v (spread %.2f): %q, want %q", got.Metric, got.A, got.B, got.Spread, got.Verdict, want)
			}
		}
	}
}

func TestTracerPerOp(t *testing.T) {
	tr := &tracer{}
	tr.spans = []span{
		{name: "root", start: 0, end: 100e6, parent: -1},
		{name: "leaf", start: 10e6, end: 40e6, parent: 0},
		{name: "leaf", start: 50e6, end: 60e6, parent: 0},
		{name: "root", start: 200e6, end: 250e6, parent: -1, op: 1},
	}
	got := tr.perOp()
	if ms := got["leaf"]; len(ms) != 1 || ms[0] != 40 {
		t.Errorf("leaf per op = %v, want [40]", ms)
	}
	if ms := got["root"]; len(ms) != 2 || median(ms) != 75 {
		t.Errorf("root per op = %v, want 100 and 50", ms)
	}
	if got := tr.childMS(0); got != 40 {
		t.Errorf("children of the first root cover %v ms, want 40", got)
	}
	var nilTracer *tracer
	nilTracer.end(nilTracer.begin("x")) // the untraced pass must be a no-op
	nilTracer.nextOp()
	if len(nilTracer.perOp()) != 0 {
		t.Error("nil tracer reported spans")
	}
}

// benchmarkJSON mirrors BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkJSON
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestBenchmarkJSONMatchesCode holds BENCHMARK.json to the driver's limits
// and to the definitions the program reports against.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	spec := readBenchmarkJSON(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if n := len(spec.Workloads); n < 2 || n > 8 || n != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code; the driver allows 2 to 8", n, len(workloads))
	}
	if len(spec.EndToEnd) > 16 || len(spec.PerLayer) > 128 {
		t.Fatalf("%d end-to-end and %d per-layer metrics; the driver allows 16 and 128", len(spec.EndToEnd), len(spec.PerLayer))
	}
	if spec.RunSeconds < 1 || spec.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", spec.RunSeconds)
	}
	seen := map[string]bool{}
	once := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q does not match %v", n, name)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	for i, w := range spec.Workloads {
		once(w.Name)
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d is %q (%q) in BENCHMARK.json, %q (%q) in code", i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	match := func(kind string, got []specMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in code", kind, len(got), len(want))
		}
		for i, g := range got {
			once(g.Name)
			w := want[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s metric %d is %+v in BENCHMARK.json, %+v in code", kind, i, g, w)
			}
			if !unit.MatchString(g.Unit) {
				t.Errorf("%s: unit %q does not match %v", g.Name, g.Unit, unit)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != w.Bound || *g.Bound <= 0 || *g.Bound > 0.25):
				t.Errorf("%s: bound %v in BENCHMARK.json, %v in code; must be in (0, 0.25]", g.Name, g.Bound, w.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s: per-layer metrics carry no bound", g.Name)
			}
		}
	}
	match("end_to_end", spec.EndToEnd, endToEnd, true)
	match("per_layer", spec.PerLayer, perLayer, false)
	if !seen["setup_s"] {
		t.Error("end_to_end lacks setup_s")
	}
}

// TestSmokeWorkloads runs both passes of every workload for a fraction of
// a second and validates what they emit against the metric definitions.
func TestSmokeWorkloads(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.name, func(t *testing.T) {
			if w.name == "tuned_round" {
				if testing.Short() {
					t.Skip("builds and spawns hanayo-tuned")
				}
				if _, err := exec.LookPath("go"); err != nil {
					t.Skip("no go tool to build hanayo-tuned with")
				}
			}
			for _, trace := range []bool{false, true} {
				d, err := measure(w, options{workload: w.name, seed: 7, seconds: 0.2, trace: trace, scratch: t.TempDir()})
				if err != nil {
					t.Fatalf("trace %v: %v", trace, err)
				}
				out := d.Output
				if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
					t.Fatalf("trace %v: correct %v, %d of %d ops failed", trace, out.Correct, out.Failed, out.Attempted)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(out.Metrics) != len(defs) {
					t.Errorf("trace %v: %d metrics emitted, %d defined", trace, len(out.Metrics), len(defs))
				}
				for _, def := range defs {
					m, ok := out.Metrics[def.Name]
					switch {
					case !ok:
						t.Errorf("trace %v: metric %s missing", trace, def.Name)
					case m.Unit != def.Unit:
						t.Errorf("%s: unit %q, defined as %q", def.Name, m.Unit, def.Unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("%s = %v", def.Name, m.Value)
					case !trace && m.Value <= 0:
						t.Errorf("end-to-end %s = %v, must be positive", def.Name, m.Value)
					}
				}
				if trace && out.Metrics["harness.samples"].Value < 1 {
					t.Error("traced pass recorded no samples")
				}
			}
		})
	}
}
