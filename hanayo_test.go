package hanayo

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/memmodel"
	"repro/internal/perfmodel"
	"repro/internal/sched"
	"repro/internal/sim"
)

func figParams(p int) perfmodel.Params     { return perfmodel.FigureOneDefaults(p, 1) }
func figParamsW(p, w int) perfmodel.Params { return perfmodel.FigureOneDefaults(p, w) }

// TestFacadeEndToEnd drives the whole public API surface the way the README
// quickstart does.
func TestFacadeEndToEnd(t *testing.T) {
	plan := Plan{
		Scheme:    "hanayo-w2",
		Cluster:   FullNVLink(8),
		Model:     BERTStyle(),
		P:         8,
		D:         1,
		B:         8,
		MicroRows: 2,
	}
	fits, err := plan.Fits()
	if err != nil {
		t.Fatal(err)
	}
	if !fits {
		t.Fatal("BERT on 8×80GB should fit")
	}
	thr, err := plan.Throughput()
	if err != nil {
		t.Fatal(err)
	}
	if thr <= 0 {
		t.Fatal("zero throughput")
	}

	s, err := sched.ByName("hanayo-w1", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := ValidateSchedule(s); err != nil {
		t.Fatal(err)
	}
	r, err := Simulate(s, Uniform{Tf: 0.5, Tb: 1, Tc: 0.02}, DefaultSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	Gantt(&buf, r, 60)
	if !strings.Contains(buf.String(), "hanayo-w1") {
		t.Fatal("gantt missing scheme name")
	}

	// Real training through the facade.
	tiny := Plan{
		Scheme:    "dapple",
		Cluster:   FullNVLink(2),
		Model:     TinyModel(6, 8, 2, 16, 4, true),
		P:         2,
		D:         1,
		B:         2,
		MicroRows: 1,
	}
	eng, err := tiny.Engine(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	gen := NewGenerator(1, 16, 4)
	if _, err := eng.Step(gen.Next(2)); err != nil {
		t.Fatal(err)
	}
}

func TestFacadeAnalyticModels(t *testing.T) {
	if ModelSizeGB(BERTStyle()) < 50 {
		t.Fatal("BERT model size implausibly small")
	}
	gp := perfmodel.GPipeBubble(figParams(8))
	hb := perfmodel.HanayoBubble(figParamsW(8, 4))
	if hb >= gp {
		t.Fatalf("hanayo bubble %g not below gpipe %g", hb, gp)
	}
}

func TestFacadeAutoTune(t *testing.T) {
	cands := AutoTune(TACC(8), BERTStyle(), SearchSpace{
		PD: [][2]int{{4, 2}}, Waves: []int{1, 2}, B: 4, MicroRows: 1,
	})
	if _, ok := Best(cands); !ok {
		t.Fatal("no feasible candidate")
	}
}

// TestFacadeTuner exercises the exported tuning service end to end: a
// served sweep (with pruning) matches the standalone one and a repeat is
// answered from the cross-sweep cache.
func TestFacadeTuner(t *testing.T) {
	space := SearchSpace{
		PD: [][2]int{{4, 2}}, Waves: []int{1, 2}, B: 4, MicroRows: 1, Prune: true,
	}
	want := AutoTune(TACC(8), BERTStyle(), space)
	tuner := NewTuner(TunerOptions{Runners: 2})
	got := tuner.AutoTune(TACC(8), BERTStyle(), space)
	if len(got) != len(want) {
		t.Fatalf("served sweep has %d candidates, standalone %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Plan.Scheme != want[i].Plan.Scheme || got[i].Throughput != want[i].Throughput {
			t.Fatalf("rank %d: served (%s, %g) != standalone (%s, %g)",
				i, got[i].Plan.Scheme, got[i].Throughput, want[i].Plan.Scheme, want[i].Throughput)
		}
	}
	if tuner.CacheLen() == 0 {
		t.Fatal("served sweep must populate the cache")
	}
	again := tuner.AutoTune(TACC(8), BERTStyle(), space)
	if len(again) != len(want) {
		t.Fatal("cached repeat lost candidates")
	}

	// The reusable executors behind the facade's Simulate and memory model.
	s, err := sched.ByName("hanayo-w2", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	var runner sim.Runner // zero value works
	var cost Uniform = Uniform{Tf: 1, Tb: 2, Tc: 0.05}
	r1, err := runner.Run(s, cost, DefaultSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	mk := r1.Makespan
	r2, err := runner.Run(s, cost, DefaultSimOptions())
	if err != nil {
		t.Fatal(err)
	}
	if r2.Makespan != mk {
		t.Fatalf("reused runner diverged: %g != %g", r2.Makespan, mk)
	}
	// The memory estimate prices the same peaks without simulating.
	plan := Plan{Scheme: "hanayo-w2", Cluster: FullNVLink(4), Model: BERTStyle(), P: 4, D: 1, B: 4, MicroRows: 2}
	mem, err := plan.Memory()
	if err != nil {
		t.Fatal(err)
	}
	unit := memmodel.StageActBytes(s, BERTStyle(), 2)
	if len(mem.ActBytes) != 4 {
		t.Fatalf("memory estimate covers %d devices, want 4", len(mem.ActBytes))
	}
	for d, b := range mem.ActBytes {
		if want := float64(r2.PeakActs[d]) * unit; b != want {
			t.Fatalf("device %d: estimate holds %g activation bytes, simulated peak prices %g", d, b, want)
		}
	}
}

// TestFacadeNamesUsed keeps the facade to what its users run: every name
// hanayo.go declares must be referenced as hanayo.X in code (comments do
// not count) by a program under examples/ or in example_test.go, or be
// the identifier an Example function documents (ExampleX, ExampleX_y).
func TestFacadeNamesUsed(t *testing.T) {
	fset := token.NewFileSet()
	facade, err := parser.ParseFile(fset, "hanayo.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, d := range facade.Decls {
		switch d := d.(type) {
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					declared = append(declared, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declared = append(declared, n.Name)
					}
				}
			}
		case *ast.FuncDecl:
			if d.Recv == nil {
				declared = append(declared, d.Name.Name)
			}
		}
	}

	users, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	for _, path := range append(users, "example_test.go") {
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		pkg := ""
		for _, imp := range f.Imports {
			if imp.Path.Value == `"repro"` {
				pkg = "hanayo"
				if imp.Name != nil {
					pkg = imp.Name.Name
				}
			}
		}
		if pkg == "" {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if name, ok := strings.CutPrefix(n.Name.Name, "Example"); ok && n.Recv == nil {
					name, _, _ = strings.Cut(name, "_")
					used[name] = true
				}
			case *ast.SelectorExpr:
				if id, ok := n.X.(*ast.Ident); ok && id.Name == pkg {
					used[n.Sel.Name] = true
				}
			}
			return true
		})
	}
	var unused []string
	for _, name := range declared {
		if !used[name] {
			unused = append(unused, name)
		}
	}
	if len(unused) > 0 {
		t.Fatalf("%d of %d facade names are used by no example: %s",
			len(unused), len(declared), strings.Join(unused, ", "))
	}
}
