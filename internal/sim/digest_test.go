package sim

import (
	"encoding/binary"
	"hash"
	"hash/fnv"
	"math"
	"strconv"
	"testing"

	"repro/internal/cluster"
	"repro/internal/costmodel"
	"repro/internal/nn"
	"repro/internal/sched"
)

// TestSimDigestPinned pins the simulator's output bit for bit over the
// generator schemes × P {2, 4, 8} × B {4, 8}, under the cluster cost model
// with a straggler, for all four {Prefetch, BatchComm} combinations. Each
// cell runs plain, with a SlowDown and a LinkDegrade, with a mid-run Fail
// and under a deadline at half its makespan, and hashes every float of the
// Result, its flags, any error text and every Record of its timeline. The
// golden parity table compares at a tolerance under uniform costs; this
// one holds a change of the walk to the bit.
func TestSimDigestPinned(t *testing.T) {
	const want = uint64(0xfc90fb87e24f332a)
	h := fnv.New64a()
	cl := cluster.TACC(8).WithStraggler(1, 0.6)
	w := costmodel.Workload{Model: nn.BERTStyle(), MicroRows: 2}
	r := NewRunner()
	for _, scheme := range allSchemes {
		for _, p := range []int{2, 4, 8} {
			for _, b := range []int{4, 8} {
				s, err := sched.ByName(scheme, p, b)
				if err != nil {
					t.Fatalf("%s P=%d B=%d: %v", scheme, p, b, err)
				}
				cost, err := costmodel.New(w, cl, s)
				if err != nil {
					t.Fatal(err)
				}
				for _, prefetch := range []bool{true, false} {
					for _, batch := range []bool{true, false} {
						opt := Options{Prefetch: prefetch, BatchComm: batch, FlushTime: 1e-3}
						h.Write([]byte(scheme + "/" + strconv.Itoa(p) + "/" + strconv.Itoa(b) + "/" +
							strconv.FormatBool(prefetch) + "/" + strconv.FormatBool(batch)))
						res, err := r.Run(s, cost, opt)
						digestResult(h, res, false, err)
						span := 1.0 // a deadlocked cell still runs its variants
						if err == nil {
							span = res.Makespan
						}
						slow := &FaultPlan{Events: []FaultEvent{
							SlowDown(p-1, 0.5, span/4), LinkDegrade(0, 1, 0.4, span/3),
						}}
						res, exceeded, err := r.RunFaults(s, cost, opt, slow, 0)
						digestResult(h, res, exceeded, err)
						fail := &FaultPlan{Events: []FaultEvent{Fail(p/2, span/2)}, RestartCost: 0.25}
						res, exceeded, err = r.RunFaults(s, cost, opt, fail, 0)
						digestResult(h, res, exceeded, err)
						res, exceeded, err = r.RunDeadline(s, cost, opt, span/2)
						digestResult(h, res, exceeded, err)
					}
				}
			}
		}
	}
	got := h.Sum64()
	t.Logf("digest %#x", got)
	if got != want {
		t.Fatalf("simulation digest %#x, want %#x", got, want)
	}
}

// digestResult hashes one run's verdict: the error text of a failed run,
// or every field of its Result and every Record of its timeline.
func digestResult(h hash.Hash64, res *Result, exceeded bool, err error) {
	var buf [8]byte
	u := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f := func(v float64) { u(math.Float64bits(v)) }
	flag := func(v bool) {
		if v {
			u(1)
		} else {
			u(0)
		}
	}
	if err != nil {
		h.Write([]byte("err:" + err.Error()))
		return
	}
	f(res.Makespan)
	for d := range res.Busy {
		f(res.Busy[d])
		f(res.End[d])
		u(uint64(res.PeakActs[d]))
	}
	for _, z := range res.Zones {
		f(z)
	}
	flag(res.Failed)
	u(uint64(res.FailedDevice))
	f(res.FailTime)
	f(res.Recovery)
	flag(exceeded)
	recs := res.Records()
	u(uint64(len(recs)))
	for _, dev := range recs {
		u(uint64(len(dev)))
		for _, rec := range dev {
			a := rec.Action
			u(uint64(a.Kind))
			u(uint64(a.Micro))
			u(uint64(a.Stage))
			u(uint64(a.Peer))
			u(uint64(a.Chunk))
			f(rec.Start)
			f(rec.End)
		}
	}
}
