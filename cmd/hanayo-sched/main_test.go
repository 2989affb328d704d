package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
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

// TestLoadProvesTheListsRun: -load prints "valid" only for a document
// whose lists run. A generated dapple schedule does; the same document
// with device 1's first forward moved ahead of the receive that brings
// its activation is structurally sound but cannot run, and is refused
// with no "valid" line.
func TestLoadProvesTheListsRun(t *testing.T) {
	s, err := sched.DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	write := func(name string, s *sched.Schedule) string {
		var buf bytes.Buffer
		if err := sched.WriteJSON(&buf, s); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	good := write("good.json", s)
	var out bytes.Buffer
	if err := run([]string{"-load", good}, &out); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("%s: valid (%d actions)\n", good, s.NumActions()); !strings.HasPrefix(out.String(), want) {
		t.Fatalf("output %q, want it to start with %q", out.String(), want)
	}

	list := s.Lists[1]
	if list[0].Kind != sched.OpRecvAct || list[1].Kind != sched.OpForward {
		t.Fatalf("device 1 starts %v %v, want a receive then its forward", list[0], list[1])
	}
	list[0], list[1] = list[1], list[0]
	bad := write("bad.json", s)
	out.Reset()
	err = run([]string{"-load", bad}, &out)
	if err == nil || !strings.Contains(err.Error(), "device 1 runs F m0 s1 c0 before its input activation arrives") {
		t.Fatalf("forward before its receive: err = %v", err)
	}
	if strings.Contains(out.String(), "valid") {
		t.Fatalf("refused document printed %q", out.String())
	}
}
