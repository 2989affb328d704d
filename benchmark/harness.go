package main

import (
	"bufio"
	"fmt"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/tensor"
)

// setupRuns is the least number of times an untraced pass builds its
// workload from scratch; setup_s is the median.
const setupRuns = 3

// inputs are everything a run derives from -seed, drawn once. The
// programs under test receive only these values, never the seed.
type inputs struct {
	Seed        uint64  `json:"seed"`
	StragDev    int     `json:"straggler_dev"`
	StragFactor float64 `json:"straggler_factor"`
	ModelSeed   uint64  `json:"model_seed"`
	DataSeed    uint64  `json:"data_seed"`
	// FailStart is where elastic_recover's first op fails, as an index into
	// the plan's (device, micro-batch) grid; each later op fails at the next
	// point, so every run times the same even mix of failure points.
	FailStart int `json:"fail_start"`
}

// The straggler lands among devices 16..31 of the 32-device presets: there
// it slows every P=32 cell of the grid and reorders their bounds, but stays
// out of the winning P=8 and P=16 pipelines (the simulated replica is
// devices 0..P-1). Inside them it changes how much a bounded search must
// evaluate — 7, 8 or 11 simulations on the Fig 10 grid — and runs of
// different seeds would stop being comparable.
func drawInputs(seed uint64) inputs {
	rng := rand.New(rand.NewPCG(seed, 0x68616e61796f)) // "hanayo"
	return inputs{
		Seed:        seed,
		StragDev:    16 + rng.IntN(16),
		StragFactor: 0.70 + 0.25*rng.Float64(),
		ModelSeed:   rng.Uint64(),
		DataSeed:    rng.Uint64(),
		FailStart:   rng.IntN(16),
	}
}

// stragglerSpec is the cluster.ApplyStraggler form of the drawn straggler;
// 'g' with precision -1 round-trips the factor bit for bit.
func (in inputs) stragglerSpec() string {
	return fmt.Sprintf("%d:%s", in.StragDev, strconv.FormatFloat(in.StragFactor, 'g', -1, 64))
}

// env is what a workload is built in: its inputs, a scratch directory
// inside the checkout, the tracer (nil on the untraced pass) and the
// resource use of the child processes it reaps.
type env struct {
	in      inputs
	scratch string
	tr      *tracer
	child   childStats
}

// childStats accumulates the rusage of reaped child processes of the
// programs under test (never the toolchain's), so CPU and peak memory of
// a multi-process op are attributed to it.
type childStats struct {
	mu       sync.Mutex
	cpu      time.Duration
	maxRSSKB int64
}

func (c *childStats) add(ps *os.ProcessState) {
	if ps == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.cpu += ps.UserTime() + ps.SystemTime()
	if ru, ok := ps.SysUsage().(*syscall.Rusage); ok && ru.Maxrss > c.maxRSSKB {
		c.maxRSSKB = ru.Maxrss
	}
}

func (c *childStats) snapshot() (time.Duration, int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.cpu, c.maxRSSKB
}

// instance is one built workload. The harness is its single closed-loop
// client: prep (untimed), op (timed), check (untimed) — the next op starts
// only when the previous one has returned and been checked.
type instance interface {
	prep() error
	op() error
	check() error
	// layers runs the workload's decomposed ops and layer probes for about
	// budget and reports what they measured (traced pass only).
	layers(budget time.Duration, m *metricSet) error
	close() error
}

// workload names one closed loop and knows how to build it.
type workload struct {
	name  string
	why   string
	setup func(e *env) (instance, error)
}

// counters are the process-wide cost meters sampled around every op.
type counters struct {
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

var counterSamples = []metrics.Sample{
	{Name: "/gc/heap/allocs:objects"},
	{Name: "/gc/heap/tiny/allocs:objects"},
	{Name: "/gc/heap/allocs:bytes"},
}

// readCounters costs two system calls and no allocation, so sampling it
// between ops does not disturb them. Mallocs counts tiny allocations too,
// as runtime.MemStats.Mallocs does.
func readCounters(e *env) counters {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail with these arguments
	metrics.Read(counterSamples)
	childCPU, _ := e.child.snapshot()
	return counters{
		cpu:     time.Duration(ru.Utime.Nano()+ru.Stime.Nano()) + childCPU,
		mallocs: counterSamples[0].Value.Uint64() + counterSamples[1].Value.Uint64(),
		bytes:   counterSamples[2].Value.Uint64(),
	}
}

// loopStats is what one closed loop measured.
type loopStats struct {
	opMS      []float64
	elapsed   time.Duration // the whole loop: ops, and the preparation and checks between them
	cpu       time.Duration
	mallocs   uint64
	bytes     uint64
	attempted int
	failed    int
	firstErr  error
	gcPause   time.Duration
}

// runLoop drives inst for window. A failed op or output check counts
// against attempted and keeps the loop going, so one bad op cannot hide
// the rest; its latency is not a sample.
func runLoop(inst instance, e *env, window time.Duration) loopStats {
	var st loopStats
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	start := time.Now()
	for st.attempted == 0 || time.Since(start) < window {
		st.attempted++
		e.tr.nextOp()
		err := inst.prep()
		if err == nil {
			c0 := readCounters(e)
			t0 := time.Now()
			err = inst.op()
			dt := time.Since(t0)
			c1 := readCounters(e)
			if err == nil {
				err = inst.check()
			}
			if err == nil {
				st.opMS = append(st.opMS, float64(dt)/1e6)
				st.cpu += c1.cpu - c0.cpu
				st.mallocs += c1.mallocs - c0.mallocs
				st.bytes += c1.bytes - c0.bytes
			}
		}
		if err != nil {
			st.failed++
			if st.firstErr == nil {
				st.firstErr = err
			}
		}
	}
	st.elapsed = time.Since(start)
	runtime.ReadMemStats(&ms1)
	st.gcPause = time.Duration(ms1.PauseTotalNs - ms0.PauseTotalNs)
	return st
}

// peakRSSKB is the process's high-water resident set (VmHWM).
func peakRSSKB() int64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, _ := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 10, 64)
			return kb
		}
	}
	return 0
}

// calibMatMul256 is the fixed pure-CPU row that lets files from different
// machines be normalised: the median of one 256×256 float32 matmul.
func calibMatMul256() float64 {
	r := tensor.NewRNG(1)
	x, y := tensor.Randn(r, 1, 256, 256), tensor.Randn(r, 1, 256, 256)
	samples := make([]float64, 0, 15)
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		tensor.MatMul(x, y)
		samples = append(samples, float64(time.Since(t0))/1e6)
	}
	return median(samples)
}

// timeMedian runs f until budget is spent (at least minRuns times) and
// returns the median duration of one call.
func timeMedian(budget time.Duration, minRuns int, f func() error) (time.Duration, error) {
	var samples []float64
	deadline := time.Now().Add(budget)
	for len(samples) < minRuns || time.Now().Before(deadline) {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		samples = append(samples, float64(time.Since(t0)))
	}
	return time.Duration(median(samples)), nil
}
