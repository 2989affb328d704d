package experiments

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

func TestRegistryComplete(t *testing.T) {
	want := []string{"fig01", "fig02", "fig03", "fig04", "fig05", "fig06",
		"fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "xtr01", "xtr02", "xtr03"}
	got := Names()
	if len(got) != len(want) {
		t.Fatalf("have %v want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("have %v want %v", got, want)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if err := Run("fig99", &bytes.Buffer{}); err == nil {
		t.Fatal("expected error")
	}
}

// runAndCheck executes one experiment and checks the output contains the
// markers that encode the paper's qualitative claims.
func runAndCheck(t *testing.T, name string, markers ...string) string {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(name, &buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, m := range markers {
		if !strings.Contains(out, m) {
			t.Fatalf("%s output missing %q:\n%s", name, m, out)
		}
	}
	return out
}

// runGolden executes one experiment and compares its output byte for byte
// with testdata/<name>.golden; -update rewrites the file instead.
func runGolden(t *testing.T, name string) {
	t.Helper()
	var buf bytes.Buffer
	if err := Run(name, &buf); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != string(want) {
		t.Fatalf("output differs from %s (rerun with -update if the change is intended)\ngot:\n%swant:\n%s", path, got, want)
	}
}

func TestFig01Shapes(t *testing.T) {
	out := runAndCheck(t, "fig01", "GPipe", "GEMS", "Hanayo (wave=4)", "simulator cross-check")
	// Hanayo wave=4 must show the lowest analytic ratio at 8 devices.
	if !strings.Contains(out, "13.6%") {
		t.Fatalf("expected hanayo w4 P=8 = 13.6%%:\n%s", out)
	}
}

func TestFig02Table(t *testing.T) {
	runAndCheck(t, "fig02", "chimera", "weights(Mw)", "P²/2 − P = 24")
}

func TestFig03AllTimelines(t *testing.T) {
	out := runAndCheck(t, "fig03", "(a) GPipe", "(b) DAPPLE", "(c) Chimera",
		"(d) Hanayo 1 wave", "(e) Hanayo 2 waves", "Mw units/device")
	// Chimera's subfigure must report 2 weight replicas.
	if !strings.Contains(out, "replicas=2") {
		t.Fatal("chimera replica count missing")
	}
}

func TestFig04AsyncBeatsSync(t *testing.T) {
	runAndCheck(t, "fig04", "synchronous 1F1B (flush)", "async 1F1B (8 iters, no flush)")
}

func TestFig05Transform(t *testing.T) {
	runAndCheck(t, "fig05", "before: Chimera", "after: 2 ×", "turn communication removed")
}

func TestFig06Waves(t *testing.T) {
	runAndCheck(t, "fig06", "wave=2, devices=8", "hanayo-w4")
}

func TestFig07Zones(t *testing.T) {
	out := runAndCheck(t, "fig07", "zone A", "zone B", "zone C", "zone cross")
	_ = out
}

// The evaluation figures are deterministic — at any worker count — so
// each is pinned whole: the goldens hold the shapes the paper claims (GPipe
// OOM-prone in fig08 and fig12, a positive best-Hanayo gain on every
// fig09 cluster, a Hanayo pick in fig10, ≈100% weak-scaling efficiency in
// fig11) along with every number around them.

func TestFig08MemoryShapes(t *testing.T) { runGolden(t, "fig08") }

func TestFig09Throughput(t *testing.T) { runGolden(t, "fig09") }

func TestFig10Search(t *testing.T) { runGolden(t, "fig10") }

func TestFig11WeakScaling(t *testing.T) { runGolden(t, "fig11") }

func TestFig12StrongScaling(t *testing.T) { runGolden(t, "fig12") }

func TestRunAll(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment")
	}
	var buf bytes.Buffer
	if err := RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "===") < 12 {
		t.Fatal("missing experiment headers")
	}
}

func TestXtr02FaultModel(t *testing.T) {
	out := runAndCheck(t, "xtr02", "best scheme", "failure injection on FC",
		"infeasible; recovery estimate")
	// At least one severity row must flip the top-1 away from the healthy
	// cluster's pick — the headline claim of the fault model.
	if !strings.Contains(out, "*") {
		t.Fatalf("no straggler severity flipped the top-1:\n%s", out)
	}
}

func TestXtr03ElasticChurn(t *testing.T) {
	out := runAndCheck(t, "xtr03", "initial plan:", "topK sims", "full sims",
		"leave dev", "join dev", "Top-K and exhaustive agree")
	// Every default event kind must produce a row.
	for _, marker := range []string{"speed dev", "link dev"} {
		if !strings.Contains(out, marker) {
			t.Fatalf("xtr03 output missing %q:\n%s", marker, out)
		}
	}
}

func TestXtr01Ablations(t *testing.T) {
	out := runAndCheck(t, "xtr01", "prefetch + batched comm (paper)", "no prefetch", "interleaved placement")
	if !strings.Contains(out, "DEADLOCK") {
		t.Fatal("unbatched blocking comm should deadlock this wave schedule")
	}
}
