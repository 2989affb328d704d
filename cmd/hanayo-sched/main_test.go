package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this run")

// TestSchedGolden pins the static analysis of the zero-bubble split
// scheme through the command's own entry point.
func TestSchedGolden(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"zbh1-p4-b4", []string{"-scheme", "zbh1", "-p", "4", "-b", "4"}},
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
