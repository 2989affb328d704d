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

// TestTuneRejectsBadSizes: -tune refuses a non-positive -devices and a
// non-positive -b with an error naming the bad value and no output — a
// negative size must not reach the preset's make, 0 devices must not
// sweep an empty cluster, and -b 0 must not fall back to AutoTune's
// default B.
func TestTuneRejectsBadSizes(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-tune", "-devices", "-4"}, "-4"},
		{[]string{"-tune", "-devices", "0"}, "got 0"},
		{[]string{"-tune", "-b", "0"}, "-b must be a positive integer, got 0"},
		{[]string{"-tune", "-b", "-3"}, "-b must be a positive integer, got -3"},
	} {
		var out bytes.Buffer
		err := run(tc.args, &out)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%v: err = %v, want one containing %q", tc.args, err, tc.want)
		}
		if out.Len() != 0 {
			t.Errorf("%v: printed %q before failing", tc.args, out.String())
		}
	}
}
