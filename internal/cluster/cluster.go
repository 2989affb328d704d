// Package cluster models the four evaluation environments of the paper
// (§5): TACC Lonestar6, a Tencent V100 cloud node, and two local A100
// servers with partial (PC) and full (FC) NVLink connectivity. A Cluster is
// a set of devices with per-pair bandwidth/latency — exactly the inputs the
// simulator's communication model needs.
package cluster

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"sync"
)

// GPU describes one accelerator.
type GPU struct {
	Name     string
	MemGB    float64 // usable HBM
	TFLOPS   float64 // sustained mixed-precision throughput (not peak)
	NodeID   int     // which host the GPU sits in
	SocketID int
	// Speed is a relative speed multiplier applied on top of TFLOPS — the
	// heterogeneity/straggler knob. 0 (the zero value) means 1.0, so every
	// pre-existing GPU literal is unperturbed. A straggler at half speed
	// has Speed 0.5; values above 1 model a faster-than-baseline device.
	Speed float64
}

// Cluster is a named set of GPUs plus a link model.
type Cluster struct {
	Name    string
	Devices []GPU
	// bwGBs[i][j] is sustained bandwidth in GB/s between devices i and j;
	// latS[i][j] is one-way latency in seconds.
	bwGBs [][]float64
	latS  [][]float64
	// linkf[i][j] is a per-link degradation multiplier applied to the
	// effective bandwidth (and dividing latency): 1.0 is the healthy link,
	// 0.25 a link at quarter rate. nil means every link is at 1.0 — the
	// common case pays no O(N²) allocation. Built copy-on-write by
	// WithLinkDegrade so perturbed clusters never alias a shared matrix.
	linkf [][]float64

	fpOnce sync.Once
	fp     uint64
}

// N returns the device count.
func (c *Cluster) N() int { return len(c.Devices) }

// SpeedOf returns device i's effective relative speed (1.0 when unset).
func (c *Cluster) SpeedOf(i int) float64 {
	if s := c.Devices[i].Speed; s > 0 {
		return s
	}
	return 1.0
}

// LinkFactor returns the degradation multiplier of the i→j link (1.0 when
// the cluster carries no perturbation layer).
func (c *Cluster) LinkFactor(i, j int) float64 {
	if c.linkf == nil {
		return 1.0
	}
	return c.linkf[i][j]
}

// CommTime returns the time to move bytes from i to j over the effective
// link: a degraded link (LinkFactor f < 1) has its bandwidth scaled by f
// and its latency by 1/f, since congestion stretches both terms of the
// transfer-time model.
func (c *Cluster) CommTime(i, j int, bytes float64) float64 {
	if i == j {
		return 0
	}
	f := c.LinkFactor(i, j)
	return c.latS[i][j]/f + bytes/(c.bwGBs[i][j]*f*1e9)
}

// FNV-64a, hand-rolled: the matrices make a fingerprint O(N²) eight-byte
// writes, and hash/fnv pays an interface dispatch plus a bounds-checked
// loop per Write. Folding bytes into a local accumulator produces the
// identical digest (same algorithm, same little-endian byte stream) at a
// fraction of the cost.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

func fnvU64(h, v uint64) uint64 {
	for i := 0; i < 8; i++ {
		h = (h ^ (v & 0xff)) * fnvPrime64
		v >>= 8
	}
	return h
}

func fnvStr(h uint64, s string) uint64 {
	h = fnvU64(h, uint64(len(s)))
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// Fingerprint returns a stable hash of everything an evaluation reads
// from the cluster — name, every device's memory/compute/placement, and
// the full bandwidth/latency matrices. Two clusters with equal
// fingerprints are interchangeable as simulation inputs, which is what
// lets a tuning service key cached evaluations across independently
// constructed Cluster values (each call to a preset builds a fresh one).
// The digest is computed once and memoized — the matrices are O(N²) to
// hash and every sweep asks — so a Cluster must not be modified after
// its first Fingerprint call.
func (c *Cluster) Fingerprint() uint64 {
	c.fpOnce.Do(func() { c.fp = c.fingerprint() })
	return c.fp
}

func (c *Cluster) fingerprint() uint64 {
	h := uint64(fnvOffset64)
	f64 := func(v float64) { h = fnvU64(h, math.Float64bits(v)) }
	// Strings are length-prefixed so field boundaries stay unambiguous in
	// the byte stream (Name "ab"+"c…" must not collide with "abc"+"…").
	h = fnvStr(h, c.Name)
	h = fnvU64(h, uint64(len(c.Devices)))
	for _, g := range c.Devices {
		h = fnvStr(h, g.Name)
		f64(g.MemGB)
		f64(g.TFLOPS)
		h = fnvU64(h, uint64(int64(g.NodeID)))
		h = fnvU64(h, uint64(int64(g.SocketID)))
	}
	for i := range c.bwGBs {
		for j := range c.bwGBs[i] {
			f64(c.bwGBs[i][j])
			f64(c.latS[i][j])
		}
	}
	// Perturbation layer: effective per-device speed and per-link factors
	// are hashed unconditionally (1.0 when absent), so a straggler or a
	// degraded link always changes the digest and a cache keyed by it can
	// never serve a healthy cluster's verdict for a perturbed one — or
	// vice versa. Hashing effective values (not raw storage) keeps a nil
	// factor matrix and an explicit all-ones matrix interchangeable.
	for i := range c.Devices {
		f64(c.SpeedOf(i))
	}
	n := len(c.Devices)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			f64(c.LinkFactor(i, j))
		}
	}
	return h
}

// MemBytes returns device i's usable memory in bytes.
func (c *Cluster) MemBytes(i int) float64 { return c.Devices[i].MemGB * 1e9 }

// Flops returns device i's effective sustained FLOP/s — the hardware rate
// scaled by the device's relative speed factor, so every consumer of the
// compute model (cost tables, analytic bounds, placement balancing) sees
// stragglers through one accessor.
func (c *Cluster) Flops(i int) float64 { return c.Devices[i].TFLOPS * 1e12 * c.SpeedOf(i) }

// clone returns a shallow perturbation copy: Devices are copied (they
// carry the per-device Speed knob), the bandwidth/latency matrices and any
// existing link-factor matrix are shared read-only, and the fingerprint
// memo starts fresh. Sharing the O(N²) matrices is safe because nothing
// mutates a cluster after construction — With* constructors always write
// through a fresh copy of whatever layer they touch.
func (c *Cluster) clone() *Cluster {
	return &Cluster{
		Name:    c.Name,
		Devices: append([]GPU(nil), c.Devices...),
		bwGBs:   c.bwGBs,
		latS:    c.latS,
		linkf:   c.linkf,
	}
}

// WithStraggler returns a copy of the cluster with device dev's speed
// multiplied by factor (0.5 = half speed; factors compose across calls).
// The receiver is never modified — Fingerprint memoizes, so perturbations
// must build fresh Cluster values — and the copy's name records the
// perturbation for display. factor must be positive.
func (c *Cluster) WithStraggler(dev int, factor float64) *Cluster {
	if dev < 0 || dev >= len(c.Devices) {
		panic(fmt.Sprintf("cluster: WithStraggler device %d out of range [0,%d)", dev, len(c.Devices)))
	}
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("cluster: WithStraggler factor must be a positive finite number, got %g", factor))
	}
	n := c.clone()
	n.Devices[dev].Speed = c.SpeedOf(dev) * factor
	n.Name = fmt.Sprintf("%s+dev%d@%g", c.Name, dev, factor)
	return n
}

// WithLinkDegrade returns a copy of the cluster with the i↔j link's
// effective rate multiplied by factor in both directions (0.25 = quarter
// bandwidth, 4× latency; factors compose across calls). Like
// WithStraggler, the receiver is untouched and the factor matrix is
// copied on write. factor must be positive; i and j must be distinct.
func (c *Cluster) WithLinkDegrade(i, j int, factor float64) *Cluster {
	nd := len(c.Devices)
	if i < 0 || i >= nd || j < 0 || j >= nd || i == j {
		panic(fmt.Sprintf("cluster: WithLinkDegrade link (%d,%d) invalid for %d devices", i, j, nd))
	}
	if factor <= 0 || math.IsNaN(factor) || math.IsInf(factor, 0) {
		panic(fmt.Sprintf("cluster: WithLinkDegrade factor must be a positive finite number, got %g", factor))
	}
	n := c.clone()
	lf := make([][]float64, nd)
	for r := 0; r < nd; r++ {
		lf[r] = make([]float64, nd)
		for col := 0; col < nd; col++ {
			lf[r][col] = c.LinkFactor(r, col)
		}
	}
	lf[i][j] *= factor
	lf[j][i] *= factor
	n.linkf = lf
	n.Name = fmt.Sprintf("%s+link%d-%d@%g", c.Name, i, j, factor)
	return n
}

func newUniform(name string, n int, gpu GPU) *Cluster {
	c := &Cluster{Name: name}
	for i := 0; i < n; i++ {
		g := gpu
		c.Devices = append(c.Devices, g)
	}
	c.bwGBs = make([][]float64, n)
	c.latS = make([][]float64, n)
	for i := range c.bwGBs {
		c.bwGBs[i] = make([]float64, n)
		c.latS[i] = make([]float64, n)
	}
	return c
}

func (c *Cluster) setLink(i, j int, bw, lat float64) {
	c.bwGBs[i][j], c.bwGBs[j][i] = bw, bw
	c.latS[i][j], c.latS[j][i] = lat, lat
}

// Effective bandwidths (GB/s) and latencies (s). These are sustained
// figures, deliberately below peak (NVLink3 peak 300 GB/s per direction,
// PCIe4 x16 peak 32 GB/s, HDR InfiniBand peak 25 GB/s).
const (
	nvlinkA100BW = 200.0
	nvlinkV100BW = 120.0
	pcieBW       = 12.0
	ibBW         = 8.0

	nvlinkLat = 3e-6
	pcieLat   = 8e-6
	ibLat     = 2.5e-5
)

// TACC models Lonestar6 GPU nodes: A100-40GB, three GPUs per node with no
// NVLink (GPU0 on socket 0; GPU1/2 on socket 1), InfiniBand between nodes.
// n is the total GPU count (the paper uses 8–32).
func TACC(n int) *Cluster {
	c := newUniform("TACC", n, GPU{Name: "A100-40GB", MemGB: 40, TFLOPS: 140})
	for i := 0; i < n; i++ {
		c.Devices[i].NodeID = i / 3
		c.Devices[i].SocketID = map[bool]int{true: 0, false: 1}[i%3 == 0]
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if c.Devices[i].NodeID == c.Devices[j].NodeID {
				c.setLink(i, j, pcieBW, pcieLat)
			} else {
				c.setLink(i, j, ibBW, ibLat)
			}
		}
	}
	return c
}

// Tencent models the GN10Xp cloud node: 8×V100-32GB with NVLink
// (hybrid-cube-mesh; we model a uniform sustained NVLink rate).
func Tencent(n int) *Cluster {
	c := newUniform("TC", n, GPU{Name: "V100-32GB", MemGB: 32, TFLOPS: 55})
	for i := 0; i < n; i++ {
		c.Devices[i].NodeID = i / 8
		for j := i + 1; j < n; j++ {
			if i/8 == j/8 {
				c.setLink(i, j, nvlinkV100BW, nvlinkLat)
			} else {
				c.setLink(i, j, ibBW, ibLat)
			}
		}
	}
	return c
}

// PartialNVLink (PC) models the local A100-80GB server where GPUs are
// NVLinked in pairs (0-1, 2-3, 4-5, 6-7) and reach other pairs over PCIe.
func PartialNVLink(n int) *Cluster {
	c := newUniform("PC", n, GPU{Name: "A100-80GB", MemGB: 80, TFLOPS: 150})
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if i/2 == j/2 {
				c.setLink(i, j, nvlinkA100BW, nvlinkLat)
			} else {
				c.setLink(i, j, pcieBW, pcieLat)
			}
		}
	}
	return c
}

// FullNVLink (FC) models the local A100-80GB server with all-to-all NVLink.
func FullNVLink(n int) *Cluster {
	c := newUniform("FC", n, GPU{Name: "A100-80GB", MemGB: 80, TFLOPS: 150})
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			c.setLink(i, j, nvlinkA100BW, nvlinkLat)
		}
	}
	return c
}

// Degraded-preset parameters: the canonical straggler runs device 0 at
// half speed; the canonical congested link runs the 0↔1 boundary — the
// busiest hop of a straight pipeline placement — at quarter rate.
const (
	presetStragglerFactor = 0.5
	presetSlowLinkFactor  = 0.25
)

// ByName returns a preset cluster: "tacc", "tc", "pc", "fc". A
// ":straggler" suffix returns the preset with device 0 at half speed and
// a ":slowlink" suffix the preset with the 0↔1 link at quarter rate —
// the degraded presets the fault-aware experiments sweep. Because the
// suffix travels inside the name, every name-routed path (the distributed
// sweep workers, flags, configs) reaches the degraded clusters with no
// new plumbing. n must be at least 1.
func ByName(name string, n int) (*Cluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("cluster: %q size must be a positive device count, got %d", name, n)
	}
	if base, ok := strings.CutSuffix(name, ":straggler"); ok {
		c, err := ByName(base, n)
		if err != nil {
			return nil, err
		}
		return c.WithStraggler(0, presetStragglerFactor), nil
	}
	if base, ok := strings.CutSuffix(name, ":slowlink"); ok {
		c, err := ByName(base, n)
		if err != nil {
			return nil, err
		}
		if n < 2 {
			return nil, fmt.Errorf("cluster: %q needs at least 2 devices", name)
		}
		return c.WithLinkDegrade(0, 1, presetSlowLinkFactor), nil
	}
	switch name {
	case "tacc", "TACC":
		return TACC(n), nil
	case "tc", "TC", "tencent":
		return Tencent(n), nil
	case "pc", "PC":
		return PartialNVLink(n), nil
	case "fc", "FC":
		return FullNVLink(n), nil
	}
	return nil, fmt.Errorf("cluster: unknown preset %q", name)
}

// Names lists the preset cluster names in the paper's order.
func Names() []string { return []string{"pc", "fc", "tacc", "tc"} }

// ApplyStraggler perturbs c according to a comma-separated "dev:factor"
// spec — the CLI form of WithStraggler (e.g. "0:0.5" runs device 0 at
// half speed; "0:0.5,3:0.8" slows two devices). An empty spec returns c
// unchanged; malformed specs and out-of-range devices or factors return
// errors rather than panicking, since specs arrive from flags. A device
// listed twice is an error naming the device, not a silent last-wins:
// "0:0.5,0:0.8" almost certainly meant two different devices, and because
// WithStraggler factors compose multiplicatively, accepting it would
// quietly apply neither of the two factors the operator wrote.
func ApplyStraggler(c *Cluster, spec string) (*Cluster, error) {
	if spec == "" {
		return c, nil
	}
	seen := make(map[int]bool)
	for _, entry := range strings.Split(spec, ",") {
		devStr, facStr, ok := strings.Cut(entry, ":")
		if !ok {
			return nil, fmt.Errorf("cluster: straggler spec %q: want dev:factor", entry)
		}
		dev, err := strconv.Atoi(devStr)
		if err != nil {
			return nil, fmt.Errorf("cluster: straggler spec %q: bad device: %w", entry, err)
		}
		factor, err := strconv.ParseFloat(facStr, 64)
		if err != nil {
			return nil, fmt.Errorf("cluster: straggler spec %q: bad factor: %w", entry, err)
		}
		if dev < 0 || dev >= len(c.Devices) {
			return nil, fmt.Errorf("cluster: straggler device %d out of range [0,%d)", dev, len(c.Devices))
		}
		if !(factor > 0) || math.IsInf(factor, 0) {
			return nil, fmt.Errorf("cluster: straggler factor must be a positive finite number, got %g", factor)
		}
		if seen[dev] {
			return nil, fmt.Errorf("cluster: straggler spec lists device %d twice", dev)
		}
		seen[dev] = true
		c = c.WithStraggler(dev, factor)
	}
	return c, nil
}
