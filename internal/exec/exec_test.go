package exec_test

// Parity and regression tests for the shared interpreter. The golden table
// below was produced by the pre-refactor internal/sim executor (its own
// action-list walking loop, before extraction into internal/exec): for
// every scheme the paper studies, at several (P, B), under the default,
// no-prefetch and flush-charged option sets. The refactored sim backend
// must reproduce each makespan, per-zone idle total, busy total and
// activation peak exactly — proving the exec interpreter preserves
// executor semantics bit-for-bit.

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/costmodel"
	"repro/internal/exec"
	"repro/internal/sched"
	"repro/internal/sim"
)

// golden rows: scheme, P, B, options, makespan, busy total,
// zones A/B/C/cross, max peak activations.
var golden = []struct {
	scheme string
	p, b   int
	opts   string
	mkspan float64
	busy   float64
	za, zb float64
	zc, zx float64
	peak   int
}{
	{"gpipe", 4, 4, "default", 21.3, 48, 6.3, 0, 12.3, 18.6, 4},
	{"gpipe", 4, 4, "noprefetch", 21.6, 48, 6.45, 0, 12.6, 19.35, 4},
	{"gpipe", 4, 4, "flush", 21.8, 48, 6.3, 0, 12.3, 18.6, 4},
	{"gpipe", 4, 8, "default", 33.3, 96, 6.3, 0, 12.3, 18.6, 8},
	{"gpipe", 4, 8, "noprefetch", 34, 96, 6.65, 0, 13, 20.35, 8},
	{"gpipe", 4, 8, "flush", 33.8, 96, 6.3, 0, 12.3, 18.6, 8},
	{"gpipe", 8, 8, "default", 45.7, 192, 29.4, 0, 57.4, 86.8, 8},
	{"gpipe", 8, 8, "noprefetch", 46.4, 192, 29.75, 0, 58.1, 91.35, 8},
	{"gpipe", 8, 8, "flush", 46.2, 192, 29.4, 0, 57.4, 86.8, 8},
	{"gpipe", 8, 16, "default", 69.7, 384, 29.4, 0, 57.4, 86.8, 16},
	{"gpipe", 8, 16, "noprefetch", 71.2, 384, 30.15, 0, 58.9, 96.55, 16},
	{"gpipe", 8, 16, "flush", 70.2, 384, 29.4, 0, 57.4, 86.8, 16},
	{"dapple", 4, 4, "default", 21.5, 48, 6.3, 0, 15.5, 16.2, 4},
	{"dapple", 4, 4, "noprefetch", 21.55, 48, 6.3, 0, 15.55, 16.35, 4},
	{"dapple", 4, 4, "flush", 22, 48, 6.3, 0, 15.5, 16.2, 4},
	{"dapple", 4, 8, "default", 33.8, 96, 6.3, 0, 15.5, 17.4, 4},
	{"dapple", 4, 8, "noprefetch", 33.95, 96, 6.3, 0, 15.55, 17.95, 4},
	{"dapple", 4, 8, "flush", 34.3, 96, 6.3, 0, 15.5, 17.4, 4},
	{"dapple", 8, 8, "default", 46.3, 192, 29.4, 0, 65, 84, 8},
	{"dapple", 8, 8, "noprefetch", 46.35, 192, 29.4, 0, 65.05, 84.35, 8},
	{"dapple", 8, 8, "flush", 46.8, 192, 29.4, 0, 65, 84, 8},
	{"dapple", 8, 16, "default", 71, 384, 29.4, 0, 65, 89.6, 8},
	{"dapple", 8, 16, "noprefetch", 71.15, 384, 29.4, 0, 65.05, 90.75, 8},
	{"dapple", 8, 16, "flush", 71.5, 384, 29.4, 0, 65, 89.6, 8},
	{"chimera", 4, 4, "default", 17.3, 48, 2.1, 0, 8.2, 10.9, 4},
	{"chimera", 4, 4, "noprefetch", 17.45, 48, 2.1, 0, 8.3, 11.4, 4},
	{"chimera", 4, 4, "flush", 17.8, 48, 2.1, 0, 8.2, 10.9, 4},
	{"chimera", 4, 8, "default", 31.5, 96, 2.1, 0, 8.2, 19.7, 4},
	{"chimera", 4, 8, "noprefetch", 31.75, 96, 2.1, 0, 8.3, 20.6, 4},
	{"chimera", 4, 8, "flush", 32, 96, 2.1, 0, 8.2, 19.7, 4},
	{"chimera", 8, 8, "default", 38.6, 192, 12.6, 0, 34.8, 69.4, 8},
	{"chimera", 8, 8, "noprefetch", 39.2, 192, 12.6, 0, 35.1, 73.9, 8},
	{"chimera", 8, 8, "flush", 39.1, 192, 12.6, 0, 34.8, 69.4, 8},
	{"chimera", 8, 16, "default", 70.2, 384, 12.6, 0, 33, 132, 8},
	{"chimera", 8, 16, "noprefetch", 71.2, 384, 12.6, 0.1, 33.3, 139.6, 8},
	{"chimera", 8, 16, "flush", 70.7, 384, 12.6, 0, 33, 132, 8},
	{"chimera-wave", 4, 4, "default", 19, 48, 3.3, 0, 8.4, 16.3, 8},
	{"chimera-wave", 4, 4, "noprefetch", 19.35, 48, 3.3, 0, 8.4, 17.7, 8},
	{"chimera-wave", 4, 4, "flush", 19.5, 48, 3.3, 0, 8.4, 16.3, 8},
	{"chimera-wave", 4, 8, "default", 34.2, 96, 3.3, 0.9, 7.4, 29.2, 10},
	{"chimera-wave", 4, 8, "noprefetch", 34.8, 96, 3.35, 0.6, 7.35, 31.9, 10},
	{"chimera-wave", 4, 8, "flush", 34.7, 96, 3.3, 0.9, 7.4, 29.2, 10},
	{"chimera-wave", 8, 8, "default", 40.6, 192, 15.4, 0, 34.1, 83.3, 16},
	{"chimera-wave", 8, 8, "noprefetch", 41.6, 192, 15.4, 0, 34.4, 91, 16},
	{"chimera-wave", 8, 8, "flush", 41.1, 192, 15.4, 0, 34.1, 83.3, 16},
	{"chimera-wave", 8, 16, "default", 72.3, 384, 15.4, 0.8, 34.3, 143.9, 18},
	{"chimera-wave", 8, 16, "noprefetch", 74.3, 384, 15.45, 0.6, 34.6, 159.75, 18},
	{"chimera-wave", 8, 16, "flush", 72.8, 384, 15.4, 0.8, 34.3, 143.9, 18},
	{"hanayo-w1", 4, 4, "default", 19, 48, 3.3, 0, 8.4, 16.3, 8},
	{"hanayo-w1", 4, 4, "noprefetch", 19.35, 48, 3.3, 0, 8.4, 17.7, 8},
	{"hanayo-w1", 4, 4, "flush", 19.5, 48, 3.3, 0, 8.4, 16.3, 8},
	{"hanayo-w1", 4, 8, "default", 34.2, 96, 3.3, 0.9, 7.4, 29.2, 10},
	{"hanayo-w1", 4, 8, "noprefetch", 34.8, 96, 3.35, 0.6, 7.35, 31.9, 10},
	{"hanayo-w1", 4, 8, "flush", 34.7, 96, 3.3, 0.9, 7.4, 29.2, 10},
	{"hanayo-w1", 8, 8, "default", 40.6, 192, 15.4, 0, 34.1, 83.3, 16},
	{"hanayo-w1", 8, 8, "noprefetch", 41.6, 192, 15.4, 0, 34.4, 91, 16},
	{"hanayo-w1", 8, 8, "flush", 41.1, 192, 15.4, 0, 34.1, 83.3, 16},
	{"hanayo-w1", 8, 16, "default", 72.3, 384, 15.4, 0.8, 34.3, 143.9, 18},
	{"hanayo-w1", 8, 16, "noprefetch", 74.3, 384, 15.45, 0.6, 34.6, 159.75, 18},
	{"hanayo-w1", 8, 16, "flush", 72.8, 384, 15.4, 0.8, 34.3, 143.9, 18},
	{"hanayo-w2", 4, 4, "default", 16.85, 48, 1.8, 0, 5, 12.6, 16},
	{"hanayo-w2", 4, 4, "noprefetch", 17.35, 48, 1.8, 0, 5.05, 14.55, 16},
	{"hanayo-w2", 4, 4, "flush", 17.35, 48, 1.8, 0, 5, 12.6, 16},
	{"hanayo-w2", 4, 8, "default", 34.75, 96, 1.8, 0, 6.5, 34.7, 20},
	{"hanayo-w2", 4, 8, "noprefetch", 36.3, 96, 1.9, 0.15, 6.65, 40.5, 20},
	{"hanayo-w2", 4, 8, "flush", 35.25, 96, 1.8, 0, 6.5, 34.7, 20},
	{"hanayo-w2", 8, 8, "default", 36.7, 192, 8.4, 0, 19.05, 74.15, 32},
	{"hanayo-w2", 8, 8, "noprefetch", 38.5, 192, 8.4, 0, 19.15, 88.45, 32},
	{"hanayo-w2", 8, 8, "flush", 37.2, 192, 8.4, 0, 19.05, 74.15, 32},
	{"hanayo-w2", 8, 16, "default", 68.25, 384, 8.4, 0.6, 18.4, 134.6, 36},
	{"hanayo-w2", 8, 16, "noprefetch", 72.15, 384, 8.45, 0.6, 18.5, 165.65, 36},
	{"hanayo-w2", 8, 16, "flush", 68.75, 384, 8.4, 0.6, 18.4, 134.6, 36},
	{"hanayo-w4", 4, 4, "default", 16.175, 48, 1.05, 0, 2.75, 12.9, 32},
	{"hanayo-w4", 4, 4, "noprefetch", 17.1, 48, 1.05, 0, 2.8, 16.55, 32},
	{"hanayo-w4", 4, 4, "flush", 16.675, 48, 1.05, 0, 2.75, 12.9, 32},
	{"hanayo-w4", 4, 8, "default", 33.4, 96, 1.05, 0.225, 2.4, 33.925, 38},
	{"hanayo-w4", 4, 8, "noprefetch", 36.45, 96, 1.3, 0.475, 2.45, 45.575, 38},
	{"hanayo-w4", 4, 8, "flush", 33.9, 96, 1.05, 0.225, 2.4, 33.925, 38},
	{"hanayo-w4", 8, 8, "default", 34.925, 192, 4.9, 0, 10.3, 72.2, 64},
	{"hanayo-w4", 8, 8, "noprefetch", 37.95, 192, 4.9, 0, 10.45, 96.25, 64},
	{"hanayo-w4", 8, 8, "flush", 35.425, 192, 4.9, 0, 10.3, 72.2, 64},
	{"hanayo-w4", 8, 16, "default", 72.375, 384, 4.9, 3.55271368e-15, 10.4, 179.7, 70},
	{"hanayo-w4", 8, 16, "noprefetch", 78.7, 384, 5.15, 0.4, 10.45, 229.6, 70},
	{"hanayo-w4", 8, 16, "flush", 72.875, 384, 4.9, 3.55271368e-15, 10.4, 179.7, 70},
	{"interleaved-v2", 4, 4, "default", 18.2, 48, 3.3, 0, 7.5, 14, 8},
	{"interleaved-v2", 4, 4, "noprefetch", 18.45, 48, 3.3, 0, 7.55, 14.95, 8},
	{"interleaved-v2", 4, 4, "flush", 18.7, 48, 3.3, 0, 7.5, 14, 8},
	{"interleaved-v2", 4, 8, "default", 35, 96, 3.3, 0, 7.5, 33.2, 8},
	{"interleaved-v2", 4, 8, "noprefetch", 35.7, 96, 3.3, 0.15, 7.55, 35.8, 8},
	{"interleaved-v2", 4, 8, "flush", 35.5, 96, 3.3, 0, 7.5, 33.2, 8},
	{"interleaved-v2", 8, 8, "default", 41, 192, 15.4, 0, 35.3, 85.3, 16},
	{"interleaved-v2", 8, 8, "noprefetch", 41.65, 192, 15.4, 0.05, 35.55, 90.2, 16},
	{"interleaved-v2", 8, 8, "flush", 41.5, 192, 15.4, 0, 35.3, 85.3, 16},
	{"interleaved-v2", 8, 16, "default", 82.2, 384, 15.4, 0, 35.2, 223, 16},
	{"interleaved-v2", 8, 16, "noprefetch", 84, 384, 15.45, 0.35, 35.3, 236.9, 16},
	{"interleaved-v2", 8, 16, "flush", 82.7, 384, 15.4, 0, 35.2, 223, 16},
	{"gems", 4, 4, "default", 24.6, 48, 2.1, 0, 4.1, 44.2, 2},
	{"gems", 4, 4, "noprefetch", 24.6, 48, 2.1, 0, 4.1, 44.2, 2},
	{"gems", 4, 4, "flush", 25.1, 48, 2.1, 0, 4.1, 44.2, 2},
	{"gems", 4, 8, "default", 49.2, 96, 2.1, 0, 4.1, 94.6, 2},
	{"gems", 4, 8, "noprefetch", 49.2, 96, 2.1, 0, 4.1, 94.6, 2},
	{"gems", 4, 8, "flush", 49.7, 96, 2.1, 0, 4.1, 94.6, 2},
	{"gems", 8, 8, "default", 98.8, 192, 12.6, 0, 24.6, 561.2, 2},
	{"gems", 8, 8, "noprefetch", 98.8, 192, 12.6, 0, 24.6, 561.2, 2},
	{"gems", 8, 8, "flush", 99.3, 192, 12.6, 0, 24.6, 561.2, 2},
	{"gems", 8, 16, "default", 197.6, 384, 12.6, 0, 24.6, 1159.6, 2},
	{"gems", 8, 16, "noprefetch", 197.6, 384, 12.6, 0, 24.6, 1159.6, 2},
	{"gems", 8, 16, "flush", 198.1, 384, 12.6, 0, 24.6, 1159.6, 2},
	// zbh1 rows were produced by the same recipe on the split-backward
	// executor path (OpBackwardInput/OpBackwardWeight priced as the even
	// split Tb/2 and Tb − Tb/2 of the fused backward). Note the peak column: 3 at P=4 and 6 at P=8, below
	// dapple's P−s cap of 4 and 8 — the zero-bubble split's memory win,
	// asserted strictly in memmodel's TestZBH1PeakBelowFused.
	{"zbh1", 4, 4, "default", 19.4, 48, 7.4, 0, 12.5, 9.7, 3},
	{"zbh1", 4, 4, "noprefetch", 19.6, 48, 7.65, 0.15, 12.7, 9.9, 3},
	{"zbh1", 4, 4, "flush", 19.9, 48, 7.4, 0, 12.5, 9.7, 3},
	{"zbh1", 4, 8, "default", 32.5, 96, 8.6, 3.1, 12.5, 9.8, 3},
	{"zbh1", 4, 8, "noprefetch", 32.9, 96, 9.35, 3.7, 12.15, 10.4, 3},
	{"zbh1", 4, 8, "flush", 33, 96, 8.6, 3.1, 12.5, 9.8, 3},
	{"zbh1", 8, 8, "default", 40.9, 192, 33.7, 1, 55.1, 45.4, 6},
	{"zbh1", 8, 8, "noprefetch", 41.55, 192, 34.65, 1.3, 57.4, 47.05, 6},
	{"zbh1", 8, 8, "flush", 41.4, 192, 33.7, 1, 55.1, 45.4, 6},
	{"zbh1", 8, 16, "default", 72.3, 384, 44.9, 26, 65.5, 58, 6},
	{"zbh1", 8, 16, "noprefetch", 73.35, 384, 47.7, 28.2, 64.75, 62.15, 6},
	{"zbh1", 8, 16, "flush", 72.8, 384, 44.9, 26, 65.5, 58, 6},
}

func simOptions(name string) sim.Options {
	switch name {
	case "noprefetch":
		return sim.Options{Prefetch: false, BatchComm: true}
	case "flush":
		return sim.Options{Prefetch: true, BatchComm: true, FlushTime: 0.5}
	}
	return sim.Options{Prefetch: true, BatchComm: true}
}

// close compares against a golden printed with 9 significant digits.
func closeTo(got, want float64) bool {
	return math.Abs(got-want) <= 1e-7*math.Max(1, math.Abs(want))
}

// TestSimBackendParity asserts the sim backend, driven by the shared
// interpreter, reproduces the pre-refactor executor's makespans, zone
// totals, busy time and activation peaks for every scheme.
func TestSimBackendParity(t *testing.T) {
	for _, g := range golden {
		s, err := sched.ByName(g.scheme, g.p, g.b)
		if err != nil {
			t.Fatalf("%s P=%d B=%d: %v", g.scheme, g.p, g.b, err)
		}
		per := float64(s.S) / float64(s.P)
		cost := costmodel.Uniform{Tf: 1 / per, Tb: 2 / per, Tc: 0.05}
		r, err := sim.Run(s, cost, simOptions(g.opts))
		if err != nil {
			t.Fatalf("%s P=%d B=%d %s: %v", g.scheme, g.p, g.b, g.opts, err)
		}
		var busy float64
		peak := 0
		for d := range r.Busy {
			busy += r.Busy[d]
			if r.PeakActs[d] > peak {
				peak = r.PeakActs[d]
			}
		}
		checks := []struct {
			name      string
			got, want float64
		}{
			{"makespan", r.Makespan, g.mkspan},
			{"busy", busy, g.busy},
			{"zoneA", r.Zones[sim.ZoneA], g.za},
			{"zoneB", r.Zones[sim.ZoneB], g.zb},
			{"zoneC", r.Zones[sim.ZoneC], g.zc},
			{"zoneCross", r.Zones[sim.ZoneCross], g.zx},
		}
		for _, c := range checks {
			if !closeTo(c.got, c.want) {
				t.Errorf("%s P=%d B=%d %s: %s = %.9g, pre-refactor %.9g",
					g.scheme, g.p, g.b, g.opts, c.name, c.got, c.want)
			}
		}
		if peak != g.peak {
			t.Errorf("%s P=%d B=%d %s: peak acts = %d, pre-refactor %d",
				g.scheme, g.p, g.b, g.opts, peak, g.peak)
		}
	}
}

// TestUnbatchedDeadlockSurfaces asserts the no-batching ablation still
// reports the bidirectional NCCL deadlock hazard as an error instead of
// hanging: a wave schedule's batched cross-exchanges cannot complete under
// strictly ordered blocking sends.
func TestUnbatchedDeadlockSurfaces(t *testing.T) {
	s, err := sched.Hanayo(8, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	per := float64(s.S) / float64(s.P)
	cost := costmodel.Uniform{Tf: 1 / per, Tb: 2 / per, Tc: 0.1}
	type outcome struct {
		r   *sim.Result
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		r, err := sim.Run(s, cost, sim.Options{Prefetch: false, BatchComm: false})
		done <- outcome{r, err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatal("unbatched blocking comm should deadlock this wave schedule")
		}
	case <-time.After(30 * time.Second):
		t.Fatal("unbatched run hung instead of reporting the deadlock")
	}
}

// countBackend counts hook invocations and never blocks — used to prove
// both drivers execute the identical instruction walk.
type countBackend struct {
	compute, sends, recvs, flush, steps atomic.Int64
}

func (c *countBackend) Compute(d int, a sched.Action) (float64, float64, error) {
	n := float64(c.compute.Add(1))
	return n - 1, n, nil
}
func (c *countBackend) BeginRun(d int, run []sched.Action, next int) error { return nil }
func (c *countBackend) Send(d int, a sched.Action) error                   { c.sends.Add(1); return nil }
func (c *countBackend) Recv(d, i int, a sched.Action) error                { c.recvs.Add(1); return nil }
func (c *countBackend) Drain(d, i int, a sched.Action) error               { c.sends.Add(1); return nil }
func (c *countBackend) Flush(d int, a sched.Action) error                  { c.flush.Add(1); return nil }
func (c *countBackend) Step(d int, a sched.Action) error                   { c.steps.Add(1); return nil }

// TestDriversWalkIdentically runs the same schedule through the
// cooperative and the concurrent driver and asserts both retire exactly
// the schedule's instruction counts and produce the same Record shape.
func TestDriversWalkIdentically(t *testing.T) {
	s, err := sched.Hanayo(4, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	wantCompute := int64(s.CountKind(sched.OpForward) + s.CountKind(sched.OpBackward))
	wantSends := int64(s.CountKind(sched.OpSendAct) + s.CountKind(sched.OpSendGrad))
	wantRecvs := int64(s.CountKind(sched.OpRecvAct) + s.CountKind(sched.OpRecvGrad))

	drivers := map[string]func(b exec.Backend) ([][]exec.Record, error){
		"cooperative": func(b exec.Backend) ([][]exec.Record, error) {
			var l exec.Loop
			return l.Run(s, b, exec.DefaultOptions())
		},
		"concurrent": func(b exec.Backend) ([][]exec.Record, error) {
			var g exec.Replicas
			recs, err := g.Run(s, []exec.Backend{b}, exec.DefaultOptions())
			return recs[0], err
		},
	}
	for name, drive := range drivers {
		var c countBackend
		recs, err := drive(&c)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got := c.compute.Load(); got != wantCompute {
			t.Errorf("%s: %d compute hooks, schedule has %d compute ops", name, got, wantCompute)
		}
		if got := c.sends.Load(); got != wantSends {
			t.Errorf("%s: %d send hooks, schedule has %d send ops", name, got, wantSends)
		}
		if got := c.recvs.Load(); got != wantRecvs {
			t.Errorf("%s: %d recv hooks, schedule has %d recv ops", name, got, wantRecvs)
		}
		if got := c.flush.Load(); got != int64(s.P) {
			t.Errorf("%s: %d flush hooks for %d devices", name, got, s.P)
		}
		if got := c.steps.Load(); got != int64(s.P) {
			t.Errorf("%s: %d optim hooks for %d devices", name, got, s.P)
		}
		var n int64
		for d, rs := range recs {
			n += int64(len(rs))
			for _, r := range rs {
				if !r.Action.Kind.IsCompute() {
					t.Errorf("%s: device %d timeline holds non-compute %v", name, d, r.Action)
				}
			}
		}
		if n != wantCompute {
			t.Errorf("%s: timeline has %d records, want %d", name, n, wantCompute)
		}
	}
}

// cancelBackend errors on device 0's first compute while every other
// device blocks in Recv until the driver's done channel closes — the
// scenario that used to hang the concurrent driver forever (the documented
// caveat this cancellation contract removed).
type cancelBackend struct {
	countBackend
	done <-chan struct{}
}

func (b *cancelBackend) SetDone(done <-chan struct{}) { b.done = done }

func (b *cancelBackend) Compute(d int, a sched.Action) (float64, float64, error) {
	if d == 0 {
		return 0, 0, errors.New("injected hook failure")
	}
	return b.countBackend.Compute(d, a)
}

func (b *cancelBackend) Recv(d, i int, a sched.Action) error {
	<-b.done
	return fmt.Errorf("device %d recv: %w", d, exec.ErrCanceled)
}

// TestConcurrentCancellation asserts the first hook error tears down peers
// blocked in Recv and is the error Replicas.Run reports for a single
// replica (not the ErrCanceled echoes from the aborted peers).
func TestConcurrentCancellation(t *testing.T) {
	s, err := sched.DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	type outcome struct{ err error }
	res := make(chan outcome, 1)
	go func() {
		var g exec.Replicas
		_, err := g.Run(s, []exec.Backend{&cancelBackend{}}, exec.DefaultOptions())
		res <- outcome{err}
	}()
	select {
	case o := <-res:
		if o.err == nil {
			t.Fatal("expected the injected hook failure to surface")
		}
		if errors.Is(o.err, exec.ErrCanceled) {
			t.Fatalf("driver reported a cancellation echo instead of the origin: %v", o.err)
		}
		if !strings.Contains(o.err.Error(), "injected hook failure") {
			t.Fatalf("unexpected error: %v", o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Replicas.Run still hangs on a mid-schedule hook error")
	}
}

// stretchBackend fails device 0's first compute while device 1 runs a
// compute-only stretch: device 1's first compute returns only once the
// driver's done channel has closed, and every compute of device 1 that
// returns after that is counted.
type stretchBackend struct {
	countBackend
	done  <-chan struct{}
	first atomic.Bool
	after atomic.Int64
}

func (b *stretchBackend) SetDone(done <-chan struct{}) { b.done = done }

func (b *stretchBackend) Compute(d int, a sched.Action) (float64, float64, error) {
	if d == 0 {
		return 0, 0, errors.New("injected hook failure")
	}
	if b.first.CompareAndSwap(false, true) {
		select {
		case <-b.done:
		case <-time.After(30 * time.Second):
			return 0, 0, errors.New("the done channel never closed")
		}
	}
	select {
	case <-b.done:
		b.after.Add(1)
	default:
	}
	return b.countBackend.Compute(d, a)
}

// TestConcurrentTeardownLatency pins the concurrent driver's teardown
// latency: a device that never blocks in Recv still observes the done
// channel between instruction groups, so once a peer's hook failed it
// retires at most the one group it was running, not the rest of its list.
func TestConcurrentTeardownLatency(t *testing.T) {
	stretch := make([]sched.Action, 64)
	for i := range stretch {
		stretch[i] = sched.Action{Kind: sched.OpForward, Micro: int32(i), Peer: -1}
	}
	s := &sched.Schedule{Scheme: "stretch", P: 2, B: 64, S: 1, Lists: [][]sched.Action{
		{{Kind: sched.OpForward, Peer: -1}}, stretch,
	}}
	var g exec.Replicas
	b := &stretchBackend{}
	_, err := g.Run(s, []exec.Backend{b}, exec.DefaultOptions())
	if err == nil || !strings.Contains(err.Error(), "injected hook failure") {
		t.Fatalf("Run reported %v, want the injected hook failure", err)
	}
	if n := b.after.Load(); n > 1 {
		t.Fatalf("device 1 retired %d compute ops after the done channel closed, want at most 1", n)
	}
}

// blockedBackend returns ErrBlocked from every Recv forever, so the
// cooperative driver must detect the stall and report a deadlock.
type blockedBackend struct{ countBackend }

func (b *blockedBackend) Recv(d, i int, a sched.Action) error { return exec.ErrBlocked }

// TestCooperativeDeadlockDetection asserts the driver's no-progress pass
// reports a deadlock instead of spinning.
func TestCooperativeDeadlockDetection(t *testing.T) {
	s, err := sched.DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	var l exec.Loop
	_, err = l.Run(s, &blockedBackend{}, exec.DefaultOptions())
	if err == nil {
		t.Fatal("expected a deadlock error from a permanently blocked backend")
	}
	if !errors.Is(err, sched.ErrDeadlock) {
		t.Fatalf("unexpected error: %v", err)
	}
}

// wrappedBlockedBackend returns a wrapped ErrBlocked from Recv and Drain.
// The driver compares with the sentinel itself, so a wrapped one is the
// hook's failure: reported, never retried.
type wrappedBlockedBackend struct{ countBackend }

func (b *wrappedBlockedBackend) Recv(d, i int, a sched.Action) error {
	return fmt.Errorf("device %d recv: %w", d, exec.ErrBlocked)
}

func (b *wrappedBlockedBackend) Drain(d, i int, a sched.Action) error {
	return fmt.Errorf("device %d drain: %w", d, exec.ErrBlocked)
}

// TestWrappedBlockedIsReported: batched (Recv) and unbatched (Drain first,
// on a straight schedule) alike, a wrapped ErrBlocked ends the run with
// that error instead of a retry that ends in a deadlock report.
func TestWrappedBlockedIsReported(t *testing.T) {
	s, err := sched.DAPPLE(4, 4)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range []exec.Options{exec.DefaultOptions(), {BatchComm: false}} {
		var l exec.Loop
		_, err := l.Run(s, &wrappedBlockedBackend{}, opt)
		if !errors.Is(err, exec.ErrBlocked) || errors.Is(err, sched.ErrDeadlock) || err == exec.ErrBlocked {
			t.Errorf("batchComm=%v: got %v, want the backend's wrapped ErrBlocked", opt.BatchComm, err)
		}
	}
}
