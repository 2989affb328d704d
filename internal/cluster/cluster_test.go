package cluster

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

// TestMain fails the package if any test leaves a goroutine behind: after
// the tests, the goroutine count must return to its baseline within 2 s,
// or every stack is printed and the run fails.
func TestMain(m *testing.M) {
	baseline := runtime.NumGoroutine()
	code := m.Run()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<20)
		buf = buf[:runtime.Stack(buf, true)]
		fmt.Fprintf(os.Stderr, "leaked goroutines: %d at start, %d after the tests\n%s", baseline, n, buf)
		if code == 0 {
			code = 1
		}
	}
	os.Exit(code)
}

func TestPresetsExist(t *testing.T) {
	for _, name := range Names() {
		c, err := ByName(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		if c.N() != 8 {
			t.Fatalf("%s: %d devices", name, c.N())
		}
	}
	if _, err := ByName("bogus", 8); err == nil {
		t.Fatal("expected error")
	}
	// A size below one is an error naming the size — never a panic from a
	// negative make, nor an empty cluster.
	for _, name := range []string{"tacc", "fc:straggler", "pc:slowlink", "bogus"} {
		for _, n := range []int{0, -4} {
			_, err := ByName(name, n)
			if err == nil || !strings.Contains(err.Error(), fmt.Sprint(n)) {
				t.Fatalf("ByName(%q, %d) = %v, want an error naming the size", name, n, err)
			}
		}
	}
	if c, err := ByName("tacc", 1); err != nil || c.N() != 1 {
		t.Fatalf("ByName(tacc, 1) = %v, %v", c, err)
	}
}

func TestSymmetry(t *testing.T) {
	f := func(seed uint64) bool {
		names := Names()
		c, _ := ByName(names[int(seed%uint64(len(names)))], 8)
		i := int((seed >> 8) % 8)
		j := int((seed >> 16) % 8)
		if i == j {
			return c.CommTime(i, j, 1e6) == 0
		}
		return bandwidth(c, i, j) == bandwidth(c, j, i) && latency(c, i, j) == latency(c, j, i)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestFCFasterThanTACC(t *testing.T) {
	fc := FullNVLink(8)
	tacc := TACC(8)
	bytes := 1e7
	if fc.CommTime(0, 7, bytes) >= tacc.CommTime(0, 7, bytes) {
		t.Fatal("full NVLink must beat TACC PCIe/IB")
	}
}

func TestPCPairsFasterThanCross(t *testing.T) {
	pc := PartialNVLink(8)
	bytes := 1e7
	if pc.CommTime(0, 1, bytes) >= pc.CommTime(0, 2, bytes) {
		t.Fatal("NVLink pair must beat PCIe cross-pair")
	}
}

func TestTACCTopology(t *testing.T) {
	c := TACC(9)
	// Devices 0,1,2 share node 0; device 3 is on node 1.
	if c.Devices[0].NodeID != 0 || c.Devices[3].NodeID != 1 {
		t.Fatalf("node ids %d %d", c.Devices[0].NodeID, c.Devices[3].NodeID)
	}
	bytes := 1e7
	intra := c.CommTime(0, 1, bytes)
	inter := c.CommTime(0, 3, bytes)
	if intra >= inter {
		t.Fatal("intra-node must beat inter-node")
	}
}

func TestCommTimeMonotonicInBytes(t *testing.T) {
	c := Tencent(8)
	if c.CommTime(0, 1, 1e6) >= c.CommTime(0, 1, 1e8) {
		t.Fatal("more bytes must take longer")
	}
}

func TestMemAndFlops(t *testing.T) {
	c := TACC(3)
	if c.MemBytes(0) != 40e9 {
		t.Fatalf("mem %g", c.MemBytes(0))
	}
	if c.Flops(0) != 140e12 {
		t.Fatalf("flops %g", c.Flops(0))
	}
}

// TestFingerprint asserts the content hash is stable across independently
// built preset instances (the cross-sweep cache hit case) and distinguishes
// every preset, size, and link perturbation (the must-not-collide cases).
func TestFingerprint(t *testing.T) {
	if TACC(8).Fingerprint() != TACC(8).Fingerprint() {
		t.Fatal("two TACC(8) builds must fingerprint identically")
	}
	seen := map[uint64]string{}
	for _, name := range Names() {
		for _, n := range []int{8, 16} {
			c, err := ByName(name, n)
			if err != nil {
				t.Fatal(err)
			}
			fp := c.Fingerprint()
			if prev, dup := seen[fp]; dup {
				t.Fatalf("%s(%d) collides with %s", name, n, prev)
			}
			seen[fp] = fmt.Sprintf("%s(%d)", name, n)
		}
	}
	// A single perturbed link must change the hash.
	a, b := FullNVLink(4), FullNVLink(4)
	b.setLink(0, 1, 2*nvlinkA100BW, nvlinkLat)
	if a.Fingerprint() == b.Fingerprint() {
		t.Fatal("a changed link must change the fingerprint")
	}
	// So must a device property.
	c := FullNVLink(4)
	c.Devices[2].MemGB = 16
	if a.Fingerprint() == c.Fingerprint() {
		t.Fatal("a changed device must change the fingerprint")
	}
}

// TestFingerprintMatchesLibraryFNV pins the hand-rolled FNV fold against
// hash/fnv over the identical byte stream: the fingerprint is the shard
// of every cross-process cache key, so the optimized fold must never
// drift from what earlier builds published to a shared tier. Perturbed
// variants run through the same check so the speed/link-factor tail of
// the stream is pinned too.
func TestFingerprintMatchesLibraryFNV(t *testing.T) {
	var cases []*Cluster
	for _, name := range Names() {
		c, err := ByName(name, 8)
		if err != nil {
			t.Fatal(err)
		}
		cases = append(cases, c, c.WithStraggler(3, 0.5), c.WithLinkDegrade(0, 7, 0.25))
	}
	for _, c := range cases {
		h := fnv.New64a()
		var buf [8]byte
		u64 := func(v uint64) {
			for i := range buf {
				buf[i] = byte(v >> (8 * i))
			}
			h.Write(buf[:])
		}
		f64 := func(v float64) { u64(math.Float64bits(v)) }
		str := func(s string) {
			u64(uint64(len(s)))
			h.Write([]byte(s))
		}
		str(c.Name)
		u64(uint64(len(c.Devices)))
		for _, g := range c.Devices {
			str(g.Name)
			f64(g.MemGB)
			f64(g.TFLOPS)
			u64(uint64(int64(g.NodeID)))
			u64(uint64(int64(g.SocketID)))
		}
		for i := range c.bwGBs {
			for j := range c.bwGBs[i] {
				f64(c.bwGBs[i][j])
				f64(c.latS[i][j])
			}
		}
		for i := range c.Devices {
			f64(c.SpeedOf(i))
		}
		for i := 0; i < c.N(); i++ {
			for j := 0; j < c.N(); j++ {
				f64(c.LinkFactor(i, j))
			}
		}
		if got, want := c.Fingerprint(), h.Sum64(); got != want {
			t.Fatalf("%s: hand-rolled fingerprint %#x != hash/fnv %#x", c.Name, got, want)
		}
	}
}

// TestPerturbations covers the straggler/link-degradation layer: effective
// rates, copy-on-write isolation of the receiver, fingerprint sensitivity,
// and the degraded ByName presets.
func TestPerturbations(t *testing.T) {
	base := FullNVLink(8)
	baseFP := base.Fingerprint()

	s := base.WithStraggler(2, 0.5)
	if got := s.Flops(2); got != base.Flops(2)*0.5 {
		t.Fatalf("straggler flops %g, want half of %g", got, base.Flops(2))
	}
	if s.Flops(0) != base.Flops(0) {
		t.Fatal("non-straggler devices must keep their speed")
	}
	if base.SpeedOf(2) != 1.0 {
		t.Fatal("WithStraggler must not mutate the receiver")
	}
	if s.Fingerprint() == baseFP {
		t.Fatal("straggler must change the fingerprint")
	}
	// Factors compose.
	if s2 := s.WithStraggler(2, 0.5); s2.SpeedOf(2) != 0.25 {
		t.Fatalf("composed straggler speed %g, want 0.25", s2.SpeedOf(2))
	}

	l := base.WithLinkDegrade(0, 1, 0.25)
	if got, want := bandwidth(l, 0, 1), bandwidth(base, 0, 1)*0.25; got != want {
		t.Fatalf("degraded bandwidth %g, want %g", got, want)
	}
	if got, want := latency(l, 1, 0), latency(base, 1, 0)*4; got != want {
		t.Fatalf("degraded latency %g, want %g", got, want)
	}
	if l.CommTime(0, 1, 1e7) <= base.CommTime(0, 1, 1e7) {
		t.Fatal("a degraded link must be slower")
	}
	if l.CommTime(2, 3, 1e7) != base.CommTime(2, 3, 1e7) {
		t.Fatal("untouched links must keep their rate")
	}
	if base.LinkFactor(0, 1) != 1.0 {
		t.Fatal("WithLinkDegrade must not mutate the receiver")
	}
	if l.Fingerprint() == baseFP || l.Fingerprint() == s.Fingerprint() {
		t.Fatal("link degradation must change the fingerprint distinctly")
	}

	for _, name := range []string{"fc:straggler", "tacc:slowlink"} {
		c, err := ByName(name, 8)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if c.Fingerprint() == baseFP {
			t.Fatalf("%s must not fingerprint like the healthy preset", name)
		}
	}
	if _, err := ByName("bogus:straggler", 8); err == nil {
		t.Fatal("degraded suffix on an unknown preset must error")
	}
}

// bandwidth is the effective GB/s of the i→j link: the raw rate scaled by
// the link's degradation factor.
func bandwidth(c *Cluster, i, j int) float64 { return c.bwGBs[i][j] * c.LinkFactor(i, j) }

// latency is the effective one-way latency of the i→j link: a degraded
// link's latency grows by the inverse of its factor.
func latency(c *Cluster, i, j int) float64 { return c.latS[i][j] / c.LinkFactor(i, j) }
