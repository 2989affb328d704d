package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"reflect"
	"testing"

	"repro/internal/cluster"
	"repro/internal/nn"
)

// rankingDigest hashes a full candidate list bit for bit: every field a
// ranking prints or a caller branches on, floats by their bits, in rank
// order.
func rankingDigest(cands []Candidate) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	for _, c := range cands {
		h.Write([]byte(c.Plan.Scheme))
		put(uint64(c.Plan.P))
		put(uint64(c.Plan.D))
		put(math.Float64bits(c.Throughput))
		put(math.Float64bits(c.PeakGB))
		put(math.Float64bits(c.Bound))
		flag(c.OOM)
		flag(c.Pruned)
		flag(c.BoundPruned)
		if c.Err != nil {
			h.Write([]byte(c.Err.Error()))
		}
		put(0xff) // row separator
	}
	return h.Sum64()
}

// TestRankingDigestPinned pins the ranking AutoTune returns, bit for bit,
// across both memory regimes (BERT fits, GPT runs out on TC), both sweep
// modes (exhaustive and TopK 3) and both front ends (Prune off and on), for
// every scheme family. The unpruned digests were recorded when the cost
// model still held dense per-(device, stage) tables and every sweep key
// allocated its own memory estimate, so they guard the arithmetic order of
// the per-stage lookups and of the in-place memory verdict against that
// reference. The memory-first front end must change nothing but the Pruned
// flag, which only an OOM row may carry: each pruned ranking is checked
// against its unpruned twin before its own digest.
func TestRankingDigestPinned(t *testing.T) {
	want := map[string]uint64{
		"TACC/bert":            0xdc32080cb3c9ac2a,
		"TACC/bert/prune":      0x1598eac17993442e,
		"TACC/bert/top3":       0x1cfe8e5101a84d47,
		"TACC/bert/top3/prune": 0x0a3a867c32187794,
		"TACC/gpt":             0xd284ca03deb34c2a,
		"TACC/gpt/prune":       0xaf76a853d338f7fa,
		"TACC/gpt/top3":        0xb57d9a6f0727220c,
		"TACC/gpt/top3/prune":  0x535f093ecb4872bb,
		"TC/bert":              0x6f833dec1627d431,
		"TC/bert/prune":        0x80be4d0e756cf1b5,
		"TC/bert/top3":         0xb61b552dfa3e4b28,
		"TC/bert/top3/prune":   0x0842308f4783c61c,
		"TC/gpt":               0x8fdecf901ab733e9,
		"TC/gpt/prune":         0x5de16d827b2badf0,
		"TC/gpt/top3":          0xa6d5fbbea86f2d56,
		"TC/gpt/top3/prune":    0x8160abb662b14299,
	}
	for _, cl := range []*cluster.Cluster{cluster.TACC(32), cluster.Tencent(32)} {
		for _, model := range []struct {
			name string
			cfg  nn.Config
		}{{"bert", nn.BERTStyle()}, {"gpt", nn.GPTStyle()}} {
			for _, topK := range []int{0, 3} {
				var unpruned []Candidate
				for _, prune := range []bool{false, true} {
					space := SearchSpace{
						Schemes:   []string{"gpipe", "dapple", "chimera", "chimera-wave", "zbh1", "interleaved-v2"},
						Waves:     []int{1, 2, 4, 8},
						B:         16,
						MicroRows: 2,
						Workers:   1,
						TopK:      topK,
						Prune:     prune,
					}
					label := cl.Name + "/" + model.name
					if topK > 0 {
						label += "/top3"
					}
					if prune {
						label += "/prune"
					}
					got := AutoTune(cl, model.cfg, space)
					if prune {
						prunedMatchesUnpruned(t, label, got, unpruned)
					} else {
						unpruned = got
					}
					if d, w := rankingDigest(got), want[label]; d != w {
						t.Errorf("%s: ranking digest %#x, want %#x", label, d, w)
					}
				}
			}
		}
	}
}

// prunedMatchesUnpruned checks that a Prune sweep's ranking equals the
// unpruned one in every field but Pruned, and that Pruned implies OOM.
func prunedMatchesUnpruned(t *testing.T, label string, pruned, unpruned []Candidate) {
	t.Helper()
	if len(pruned) != len(unpruned) {
		t.Fatalf("%s: %d rows, unpruned %d", label, len(pruned), len(unpruned))
	}
	for i, p := range pruned {
		if p.Pruned && !p.OOM {
			t.Errorf("%s rank %d (%s P=%d D=%d): Pruned without OOM", label, i, p.Plan.Scheme, p.Plan.P, p.Plan.D)
		}
		p.Pruned = unpruned[i].Pruned
		if !reflect.DeepEqual(p, unpruned[i]) {
			t.Errorf("%s rank %d: %+v, unpruned %+v", label, i, pruned[i], unpruned[i])
		}
	}
}
