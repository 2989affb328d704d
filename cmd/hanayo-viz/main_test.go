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

// TestVizGolden pins the simulated timeline through the command's own
// entry point: the zero-bubble split scheme's summary (makespan, bubble and
// zones, which price the split-backward halves) and a wave schedule's Gantt
// chart.
func TestVizGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"zbh1-p4-b4-summary", []string{"-scheme", "zbh1", "-p", "4", "-b", "4", "-format", "summary"}},
		{"hanayo-w2-p4-b4-gantt", []string{"-scheme", "hanayo-w2", "-p", "4", "-b", "4"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var out bytes.Buffer
			if err := run(tc.args, &out); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.name+".golden")
			if *update {
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got := out.String(); got != string(want) {
				t.Fatalf("output differs from %s (rerun with -update if the change is intended)\ngot:\n%swant:\n%s", path, got, want)
			}
		})
	}
}

// TestVizRejectsBadTc: a negative, NaN or infinite per-hop cost would let
// transfers arrive before they are sent (or poison every time), so the
// command refuses it, naming the flag, before it simulates anything.
func TestVizRejectsBadTc(t *testing.T) {
	for _, tc := range []string{"-1", "NaN", "Inf", "-Inf"} {
		var out bytes.Buffer
		err := run([]string{"-scheme", "dapple", "-format", "summary", "-tc", tc}, &out)
		if err == nil || !strings.Contains(err.Error(), "-tc must be a non-negative finite number") {
			t.Fatalf("-tc %s: err = %v, want a -tc rejection", tc, err)
		}
		if out.Len() != 0 {
			t.Fatalf("-tc %s printed %q before failing", tc, out.String())
		}
	}
	if err := run([]string{"-scheme", "dapple", "-format", "summary", "-tc", "0"}, new(bytes.Buffer)); err != nil {
		t.Fatalf("-tc 0: %v", err)
	}
}
