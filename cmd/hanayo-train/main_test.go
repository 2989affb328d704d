package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// TestTrainerGolden pins the trainer's deterministic output — the loss and
// the message and byte counts of five iterations — for a wave schedule
// with data parallelism and for Chimera's two weight copies. The last line
// (median step time, prefetch hits) depends on timing and is left out.
func TestTrainerGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"hanayo-w2-p4-dp2", []string{"-scheme", "hanayo-w2", "-p", "4", "-dp", "2", "-iters", "5"}},
		{"chimera-p4", []string{"-scheme", "chimera", "-p", "4", "-iters", "5"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			lines := strings.SplitAfter(out.String(), "\n")
			timing := lines[len(lines)-2] // SplitAfter leaves "" after the final newline
			if !strings.HasPrefix(timing, "median step ") || !strings.Contains(timing, "prefetch-hits=") {
				t.Fatalf("last line %q is not the timing line", timing)
			}
			got := strings.Join(lines[:len(lines)-2], "")
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Fatalf("output differs from %s (rerun with -update if the change is intended)\ngot:\n%swant:\n%s", path, got, want)
			}
		})
	}
}

// TestTrainerRejectsNonPositiveIters: -iters 0 or below is an error naming
// the flag, not a header line followed by no training.
func TestTrainerRejectsNonPositiveIters(t *testing.T) {
	for _, n := range []string{"0", "-1"} {
		var out bytes.Buffer
		err := run([]string{"-iters", n}, &out)
		if err == nil || err.Error() != "-iters must be a positive integer, got "+n {
			t.Errorf("-iters %s: err = %v", n, err)
		}
		if out.Len() != 0 {
			t.Errorf("-iters %s: printed %q", n, out.String())
		}
	}
}
