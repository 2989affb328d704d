package cachewire

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime"
	"testing"
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

// TestEntryRoundTripProperty drives the codec over the entry scalar
// ranges: uniformly random IEEE-754 bit patterns (which cover normals,
// subnormals, infinities and NaNs), the realistic throughput/footprint
// magnitudes, and every flag combination. Equality is on bit patterns so
// NaN payloads must survive too.
func TestEntryRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	f64 := func(i int) float64 {
		switch i % 4 {
		case 0: // realistic throughput/GB magnitudes
			return rng.Float64() * 1e4
		case 1: // full bit-pattern space: subnormals, NaNs, infinities
			return math.Float64frombits(rng.Uint64())
		case 2: // signed, tiny
			return (rng.Float64() - 0.5) * 1e-300
		default: // exact edge values
			return []float64{0, math.Inf(1), math.Inf(-1), math.NaN(), -0.0, math.MaxFloat64}[rng.Intn(6)]
		}
	}
	for i := 0; i < 20000; i++ {
		in := Entry{
			PerReplica: f64(i),
			MaxGB:      f64(i + 1),
			Fits:       i&1 != 0,
			Pruned:     i&2 != 0,
			Failed:     i&4 != 0,
		}
		buf := AppendEntry(nil, in)
		if len(buf) != EntrySize {
			t.Fatalf("encoded entry is %d bytes, want %d", len(buf), EntrySize)
		}
		out, err := DecodeEntry(buf)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if math.Float64bits(out.PerReplica) != math.Float64bits(in.PerReplica) ||
			math.Float64bits(out.MaxGB) != math.Float64bits(in.MaxGB) ||
			out.Fits != in.Fits || out.Pruned != in.Pruned || out.Failed != in.Failed {
			t.Fatalf("round trip #%d: got %+v, want %+v", i, out, in)
		}
	}
}

// TestEntryAppendPreservesPrefix asserts AppendEntry really appends — the
// protocol relies on encoding straight after a status/header prefix.
func TestEntryAppendPreservesPrefix(t *testing.T) {
	prefix := []byte{0xde, 0xad}
	buf := AppendEntry(prefix, Entry{PerReplica: 1, MaxGB: 2, Fits: true})
	if len(buf) != 2+EntrySize || buf[0] != 0xde || buf[1] != 0xad {
		t.Fatalf("prefix clobbered: % x", buf[:2])
	}
	if _, err := DecodeEntry(buf[2:]); err != nil {
		t.Fatalf("decode after prefix: %v", err)
	}
}

// TestDecodeRejectsVersionSkew flips the version byte through every wrong
// value class: a future version, zero, and garbage must all be refused.
func TestDecodeRejectsVersionSkew(t *testing.T) {
	good := AppendEntry(nil, Entry{PerReplica: 3.5, MaxGB: 41, Fits: true})
	for _, v := range []byte{0, Version + 1, 0xff} {
		skewed := append([]byte(nil), good...)
		skewed[0] = v
		if _, err := DecodeEntry(skewed); err == nil {
			t.Fatalf("version %d accepted; want rejection", v)
		}
	}
	// Unknown flag bits are forward-compat skew too.
	dirty := append([]byte(nil), good...)
	dirty[1] |= 0x80
	if _, err := DecodeEntry(dirty); err == nil {
		t.Fatal("unknown flag bits accepted; want rejection")
	}
}

// TestDecodeRejectsTruncation feeds every proper prefix (and one oversized
// payload) to the decoder: only exactly EntrySize bytes may decode.
func TestDecodeRejectsTruncation(t *testing.T) {
	good := AppendEntry(nil, Entry{PerReplica: 1.25, MaxGB: 7})
	for n := 0; n < EntrySize; n++ {
		if _, err := DecodeEntry(good[:n]); err == nil {
			t.Fatalf("%d-byte truncation accepted; want rejection", n)
		}
	}
	if _, err := DecodeEntry(append(good, 0)); err == nil {
		t.Fatal("oversized payload accepted; want rejection")
	}
}

// TestLoopback exercises the in-process tier: put/get round trip, misses,
// update-in-place, and the LRU bound.
func TestLoopback(t *testing.T) {
	lb := NewLoopback(2)
	if _, ok, _ := get1(lb, 1); ok {
		t.Fatal("empty cache reported a hit")
	}
	e := Entry{PerReplica: 9.5, MaxGB: 17, Fits: true}
	if err := put1(lb, 1, e); err != nil {
		t.Fatal(err)
	}
	got, ok, err := get1(lb, 1)
	if err != nil || !ok || got != e {
		t.Fatalf("get: %+v ok=%v err=%v, want %+v", got, ok, err, e)
	}
	e2 := Entry{Pruned: true, MaxGB: 60}
	if err := put1(lb, 1, e2); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := get1(lb, 1); got != e2 {
		t.Fatalf("update-in-place lost: %+v", got)
	}
	put1(lb, 2, e)
	put1(lb, 3, e) // evicts key 1 (2 was just written, 1 is oldest-touched)
	if lb.Len() != 2 {
		t.Fatalf("bound violated: %d entries, cap 2", lb.Len())
	}
	if _, ok, _ := get1(lb, 1); ok {
		t.Fatal("LRU kept the oldest entry past the bound")
	}
}
