package sched

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math/rand"
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
	g := NewGenerator()
	for _, scheme := range append([]string{"hanayo-w8"}, generatorSchemes...) {
		for _, p := range []int{2, 3, 4, 5, 6, 8, 12, 16, 24, 32} {
			for _, b := range []int{1, 2, 3, 4, 5, 6, 8, 12, 16, 24, 32} {
				h.Write([]byte(scheme + "/" + strconv.Itoa(p) + "/" + strconv.Itoa(b)))
				s, err := g.Generate(scheme, p, b)
				digestSchedule(h, s, err)
			}
		}
	}
	got := h.Sum64()
	t.Logf("digest %#x", got)
	if got != want {
		t.Fatalf("Generate digest %#x, want %#x", got, want)
	}
}

// TestGenerateRandomCostsDigestPinned pins the engine's output away from the
// default ordering costs: a seeded draw of 4 000 compiles over every scheme
// family (async 1F1B, hanayo-w1…w8 and interleaved-v2…v4 included), P 1–16,
// B 1–24 and random (Tf, Tb, Tc, Tw) — Tc = 0 in a third of the draws and
// integer costs in a third of each, so many tasks become ready at one
// instant — with EagerW in a quarter and the reference path (asReference)
// in another quarter. The digest was recorded while the engine still drove
// an event heap, so it guards the per-device next-wake instants that
// replaced it; TestGenerateDigestPinned covers only the default costs.
func TestGenerateRandomCostsDigestPinned(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles 4 000 random shapes and cost sets")
	}
	const want = uint64(0xbbc755e3e959fd32)
	rng := rand.New(rand.NewSource(40))
	cost := func() float64 {
		if rng.Intn(3) == 0 {
			return float64(1 + rng.Intn(4))
		}
		return 0.05 + 4*rng.Float64()
	}
	h := fnv.New64a()
	g := NewGenerator()
	for i := 0; i < 4000; i++ {
		sc := Scheme{fam: family(rng.Intn(len(families)))}
		switch sc.fam {
		case famChimeraWave:
			sc.arg = 1
		case famHanayo:
			sc.arg = 1 << rng.Intn(4)
		case famInterleaved:
			sc.arg = 2 + rng.Intn(3)
		}
		p, b := 1+rng.Intn(16), 1+rng.Intn(24)
		tf, tb, tw := cost(), cost(), cost()
		var tc float64
		switch rng.Intn(3) {
		case 1:
			tc = float64(rng.Intn(3))
		case 2:
			tc = rng.Float64()
		}
		eager, reference := rng.Intn(4) == 0, rng.Intn(4) == 0
		tweaks := []func(*genParams){func(gp *genParams) {
			gp.Tf, gp.Tb, gp.Tc, gp.Tw, gp.EagerW = tf, tb, tc, tw, eager
		}}
		if reference {
			tweaks = append(tweaks, asReference)
		}
		h.Write([]byte(sc.Name() + "/" + strconv.Itoa(p) + "/" + strconv.Itoa(b) + "/" +
			strconv.FormatFloat(tf, 'g', -1, 64) + "/" + strconv.FormatFloat(tb, 'g', -1, 64) + "/" +
			strconv.FormatFloat(tc, 'g', -1, 64) + "/" + strconv.FormatFloat(tw, 'g', -1, 64) + "/" +
			strconv.FormatBool(eager) + "/" + strconv.FormatBool(reference)))
		s, err := g.generateWith(sc, p, b, tweaks...)
		digestSchedule(h, s, err)
	}
	got := h.Sum64()
	t.Logf("digest %#x", got)
	if got != want {
		t.Fatalf("random-cost Generate digest %#x, want %#x", got, want)
	}
}

// digestSchedule writes one compile's outcome into h: the error of a
// rejected shape, or the schedule's header, its mapping's device and chunk
// of every (micro parity, stage), and per device its hosting rows and every
// action of its list.
func digestSchedule(h hash.Hash64, s *Schedule, err error) {
	if err != nil {
		h.Write([]byte(err.Error()))
		return
	}
	var buf [8]byte
	put := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
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
			put(int(a.Micro))
			put(int(a.Stage))
			put(int(a.Chunk))
			put(int(a.Peer))
		}
	}
}
