package sched

import (
	"encoding/binary"
	"hash/fnv"
	"strconv"
	"testing"
)

// TestGenerateDigestPinned pins Generate's output over the scheme × P × B
// grid bit for bit: every header, every action of every list, the mapping's
// device and chunk of every (micro parity, stage) and its hosting rows, or
// the error of a rejected shape. The digest was recorded while mappings
// still resolved (micro, stage) through closures, so it guards the parity
// tables that replaced them.
func TestGenerateDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles every scheme over the full (P, B) grid")
	}
	const want = uint64(0xc123037f7bb0b8a7)
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	g := NewGenerator()
	for _, scheme := range append([]string{"hanayo-w8"}, generatorSchemes...) {
		for _, p := range []int{2, 3, 4, 5, 6, 8, 12, 16, 24, 32} {
			for _, b := range []int{1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32} {
				h.Write([]byte(scheme + "/" + strconv.Itoa(p) + "/" + strconv.Itoa(b)))
				s, err := g.Generate(scheme, p, b)
				if err != nil {
					h.Write([]byte(err.Error()))
					continue
				}
				for _, v := range []int{s.P, s.B, s.S, s.W, s.Mapping.WeightReplicas} {
					put(v)
				}
				h.Write([]byte(s.Scheme + s.Mapping.Kind))
				for micro := 0; micro < 2; micro++ {
					for st := 0; st < s.S; st++ {
						put(s.Mapping.Device(micro, st))
						put(s.Mapping.Chunk(micro, st))
					}
				}
				for d, l := range s.Lists {
					for _, hs := range s.Mapping.Hosted(d) {
						put(hs.Stage)
						put(hs.Chunk)
					}
					put(len(l))
					for _, a := range l {
						put(int(a.Kind))
						put(a.Micro)
						put(a.Stage)
						put(a.Chunk)
						put(a.Peer)
					}
				}
			}
		}
	}
	got := h.Sum64()
	t.Logf("digest %#x", got)
	if got != want {
		t.Fatalf("Generate digest %#x, want %#x", got, want)
	}
}
