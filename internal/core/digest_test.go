package core

import (
	"encoding/binary"
	"hash/fnv"
	"math"
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
// every scheme family. The digests were recorded when the cost model still
// held dense per-(device, stage) tables and every sweep key allocated its
// own memory estimate, so they guard the arithmetic order of the per-stage
// lookups and of the in-place memory verdict against that reference.
func TestRankingDigestPinned(t *testing.T) {
	want := map[string]uint64{
		"TACC/bert":            0xdc32080cb3c9ac2a,
		"TACC/bert/prune":      0x1969e1612beb75ab,
		"TACC/bert/top3":       0x1cfe8e5101a84d47,
		"TACC/bert/top3/prune": 0xe6d4eb93ce55eec3,
		"TACC/gpt":             0xd284ca03deb34c2a,
		"TACC/gpt/prune":       0xa39739664967939a,
		"TACC/gpt/top3":        0xb57d9a6f0727220c,
		"TACC/gpt/top3/prune":  0x748ecb2596d35e0d,
		"TC/bert":              0x6f833dec1627d431,
		"TC/bert/prune":        0x9340cc09ada3c101,
		"TC/bert/top3":         0xb61b552dfa3e4b28,
		"TC/bert/top3/prune":   0xe2269e166b52d318,
		"TC/gpt":               0x8fdecf901ab733e9,
		"TC/gpt/prune":         0xb8234ab987f1be96,
		"TC/gpt/top3":          0xa6d5fbbea86f2d56,
		"TC/gpt/top3/prune":    0x2dafc3c3d76f0e03,
	}
	for _, cl := range []*cluster.Cluster{cluster.TACC(32), cluster.Tencent(32)} {
		for _, model := range []struct {
			name string
			cfg  nn.Config
		}{{"bert", nn.BERTStyle()}, {"gpt", nn.GPTStyle()}} {
			for _, topK := range []int{0, 3} {
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
					got := rankingDigest(AutoTune(cl, model.cfg, space))
					if w := want[label]; got != w {
						t.Errorf("%s: ranking digest %#x, want %#x", label, got, w)
					}
				}
			}
		}
	}
}
