package sched

import (
	"bytes"
	"strings"
	"testing"
)

func TestGEMSLowActivationFootprint(t *testing.T) {
	// At most one activation per (stage, direction) may be live: replay
	// per-device order and track inflight per stage/chunk.
	s, err := GEMS(4, 8)
	if err != nil {
		t.Fatal(err)
	}
	inflight := map[[2]int]int{}
	for _, list := range s.Lists {
		for _, a := range list {
			key := [2]int{int(a.Stage), int(a.Chunk)}
			switch a.Kind {
			case OpForward:
				inflight[key]++
				if inflight[key] > 1 {
					t.Fatalf("stage %d chunk %d exceeded GEMS budget", a.Stage, a.Chunk)
				}
			case OpBackward:
				inflight[key]--
			}
		}
	}
}

func TestGEMSByName(t *testing.T) {
	s, err := ByName("gems", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.Scheme != "gems" {
		t.Fatalf("scheme %q", s.Scheme)
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, name := range []string{"gpipe", "dapple", "chimera", "hanayo-w2", "interleaved-v2", "gems"} {
		orig, err := ByName(name, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := WriteJSON(&buf, orig); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got.Scheme != orig.Scheme || got.P != orig.P || got.S != orig.S || got.B != orig.B {
			t.Fatalf("%s: header mismatch", name)
		}
		for d := range orig.Lists {
			if len(got.Lists[d]) != len(orig.Lists[d]) {
				t.Fatalf("%s: device %d list length", name, d)
			}
			for i := range orig.Lists[d] {
				if got.Lists[d][i] != orig.Lists[d][i] {
					t.Fatalf("%s: device %d op %d: %v vs %v", name, d, i, got.Lists[d][i], orig.Lists[d][i])
				}
			}
		}
	}
}

func TestReadJSONRejectsCorrupted(t *testing.T) {
	orig, err := DAPPLE(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteJSON(&buf, orig); err != nil {
		t.Fatal(err)
	}
	// Chop a compute op out of the JSON by re-encoding a broken schedule.
	broken := orig.Clone()
	broken.Lists[1] = broken.Lists[1][1:]
	var buf2 bytes.Buffer
	if err := WriteJSON(&buf2, broken); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadJSON(&buf2); err == nil {
		t.Fatal("corrupted schedule must fail validation on read")
	}
}

func TestAnalyze(t *testing.T) {
	s, err := Hanayo(4, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(s)
	if !a.Balanced() {
		t.Fatal("wave schedules balance compute")
	}
	// 2 chunks × 4 micros × (F+B) = 16 compute ops per device.
	for d, c := range a.ComputePerDev {
		if c != 16 {
			t.Fatalf("device %d compute %d want 16", d, c)
		}
	}
	if a.TotalTransfers != s.CountKind(OpSendAct)+s.CountKind(OpSendGrad) {
		t.Fatal("transfer count mismatch")
	}
	// Wave pipelines exchange bidirectionally on adjacent pairs.
	if a.CrossPairs == 0 {
		t.Fatal("expected bidirectional pairs in a wave schedule")
	}
	var buf bytes.Buffer
	a.Print(&buf)
	if !strings.Contains(buf.String(), "hanayo-w1") || !strings.Contains(buf.String(), "warmupF") {
		t.Fatalf("analysis print: %s", buf.String())
	}
}

func TestAnalyzeGPipeNoCrossPairs(t *testing.T) {
	s, err := GPipe(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := Analyze(s)
	// GPipe sends activations down and gradients up over the same pairs,
	// so pairs are bidirectional too — but warmup forwards differ:
	// device 0 runs all B before its first backward.
	if a.WarmupForwards[0] != 4 {
		t.Fatalf("gpipe device 0 warmup %d want 4", a.WarmupForwards[0])
	}
}
