package hanayo

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// The two example lines that report a wall-clock duration; everything
// else the examples print is deterministic (faultsweep's seconds are
// simulated time).
var (
	sweptLine    = regexp.MustCompile(`(?m)^(swept \d+ candidates in )\S+ cold, \S+ from`)
	clustersLine = regexp.MustCompile(`(?m)^(four clusters swept in )\S+:`)
)

func maskWallClock(out []byte) []byte {
	out = sweptLine.ReplaceAll(out, []byte("${1}<duration> cold, <duration> from"))
	return clustersLine.ReplaceAll(out, []byte("${1}<duration>:"))
}

// TestExamplesGolden builds every program under examples/ once, runs it
// and compares its standard output with testdata/examples/<name>.golden,
// wall-clock durations masked.
func TestExamplesGolden(t *testing.T) {
	mains, err := filepath.Glob(filepath.Join("examples", "*", "main.go"))
	if err != nil {
		t.Fatal(err)
	}
	if len(mains) == 0 {
		t.Fatal("no examples found")
	}
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	for _, main := range mains {
		name := filepath.Base(filepath.Dir(main))
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stdout, cmd.Stderr = &stdout, &stderr
			if err := cmd.Run(); err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			got := maskWallClock(stdout.Bytes())
			path := filepath.Join("testdata", "examples", name+".golden")
			if *update {
				if err := os.WriteFile(path, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("output differs from %s (rerun with -update if the change is intended)\ngot:\n%swant:\n%s", path, got, want)
			}
		})
	}
}
