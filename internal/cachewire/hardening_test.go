package cachewire

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
)

// TestRetryHealsWithinOneCall pins the retry loop's core promise: a
// server restart between two requests heals inside ONE client call —
// no caller-side retry loop (contrast TestClientHealsAfterServerRestart,
// which predates the retry loop and loops by hand) — and the absorbed
// failure is visible in RetryStats, not in an error.
func TestRetryHealsWithinOneCall(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	srv := NewServer(0)
	go srv.Serve(l)
	c, err := Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := put1(c, 1, Entry{PerReplica: 5}); err != nil {
		t.Fatal(err)
	}
	srv.Close() // sever the listener AND the pooled connection's peer

	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	srv2 := NewServer(0)
	go srv2.Serve(l2)
	defer srv2.Close()

	if err := put1(c, 2, Entry{PerReplica: 6, Fits: true}); err != nil {
		t.Fatalf("single put across a restart must heal via retry: %v", err)
	}
	if got, ok, err := c.Get(2); err != nil || !ok || got.PerReplica != 6 {
		t.Fatalf("get after healed put: %+v ok=%v err=%v", got, ok, err)
	}
	if c.RetryStats() == 0 {
		t.Fatal("restart was absorbed without counting a retry")
	}
}

// flakyProxy fronts a real server and sabotages the FIRST connection:
// the request stream is forwarded intact (so the server APPLIES it) but
// the response is swallowed and the connection cut — the ambiguous
// "request landed, acknowledgement lost" failure. Every later
// connection is proxied transparently.
func flakyProxy(t *testing.T, backend string) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var mu sync.Mutex
	sabotaged := false
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			sabotage := !sabotaged
			sabotaged = true
			mu.Unlock()
			go func(client net.Conn, sabotage bool) {
				defer client.Close()
				up, err := net.Dial("tcp", backend)
				if err != nil {
					return
				}
				defer up.Close()
				go io.Copy(up, client)
				if sabotage {
					// Wait for the server's response (proof it applied the
					// request), drop it, hang up on the client.
					var b [1]byte
					io.ReadFull(up, b[:])
					return
				}
				io.Copy(client, up)
			}(conn, sabotage)
		}
	}()
	return l.Addr().String()
}

// TestMultiPutIdempotentUnderRetry drives the ambiguous-failure case the
// retry design leans on: the server applies a MultiPut whose response is
// lost, the client retries the WHOLE batch, and the store ends exactly
// at the batch contents — the replay overwrote byte-identical entries —
// with the call reporting success and the sabotage visible in RetryStats.
func TestMultiPutIdempotentUnderRetry(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(0)
	go srv.Serve(l)
	t.Cleanup(func() { srv.Close() })

	c, err := Dial(flakyProxy(t, l.Addr().String()))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := make([]uint64, 10)
	ents := make([]Entry, 10)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 3
		ents[i] = Entry{PerReplica: float64(i) + 0.5, MaxGB: float64(i), Fits: i%2 == 0}
	}
	if err := c.MultiPut(keys, ents); err != nil {
		t.Fatalf("multiput across a dropped ack must heal via retry: %v", err)
	}
	if c.RetryStats() == 0 {
		t.Fatal("sabotaged first connection did not register a retry")
	}
	if n := srv.Len(); n != len(keys) {
		t.Fatalf("store holds %d entries after the replayed batch, want %d", n, len(keys))
	}
	out := make([]Entry, len(keys))
	okv := make([]bool, len(keys))
	if err := c.MultiGet(keys, out, okv); err != nil {
		t.Fatal(err)
	}
	for i := range keys {
		if !okv[i] || out[i] != ents[i] {
			t.Fatalf("key %d after replay: %+v ok=%v, want %+v", i, out[i], okv[i], ents[i])
		}
	}
}

// flakyCache wraps a Loopback behind a kill switch, so ring tests can
// take a node down and up without real sockets.
type flakyCache struct {
	lb   *Loopback
	mu   sync.Mutex
	down bool
}

func (f *flakyCache) setDown(d bool) {
	f.mu.Lock()
	f.down = d
	f.mu.Unlock()
}

func (f *flakyCache) isDown() bool {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.down
}

func (f *flakyCache) MultiGet(keys []uint64, out []Entry, ok []bool) error {
	if f.isDown() {
		return fmt.Errorf("flaky: node down")
	}
	return f.lb.MultiGet(keys, out, ok)
}

func (f *flakyCache) MultiPut(keys []uint64, entries []Entry) error {
	if f.isDown() {
		return fmt.Errorf("flaky: node down")
	}
	return f.lb.MultiPut(keys, entries)
}

// TestRingProbeGateSkipsAndResurrects walks the gate's whole life cycle
// on a manual clock: first failure arms the gate, further operations
// skip the node (Skipped rises, Errors frozen), the elapsed gap admits
// exactly one probe whose failure doubles the gap, and a probe that
// finds the node healthy restores it fully — after which read repair
// back-fills what it missed while gated.
func TestRingProbeGateSkipsAndResurrects(t *testing.T) {
	fa := &flakyCache{lb: NewLoopback(0)}
	fb := &flakyCache{lb: NewLoopback(0)}
	r, err := NewRing(2, RingNode{Name: "node-a", Cache: fa}, RingNode{Name: "node-b", Cache: fb})
	if err != nil {
		t.Fatal(err)
	}
	var clock int64 // virtual nanoseconds
	r.now = func() int64 { return clock }

	fb.setDown(true)
	e := Entry{PerReplica: 1, Fits: true}
	if err := put1(r, 100, e); err != nil {
		t.Fatalf("put with one live replica: %v", err)
	}
	if errs := r.Errors(); errs[1].Errors != 1 {
		t.Fatalf("first failure not counted: %+v", errs)
	}

	// Gate armed: operations inside the gap skip node-b without touching it.
	for k := uint64(101); k < 106; k++ {
		if err := put1(r, k, e); err != nil {
			t.Fatal(err)
		}
	}
	errs := r.Errors()
	if errs[1].Errors != 1 {
		t.Fatalf("gated node still being hammered: %+v", errs)
	}
	if errs[1].Skipped == 0 {
		t.Fatalf("gate skips not counted: %+v", errs)
	}

	// Gap elapses: exactly one probe goes through, fails, doubles the gap.
	clock += probeGapBase
	if err := put1(r, 110, e); err != nil {
		t.Fatal(err)
	}
	if errs := r.Errors(); errs[1].Errors != 2 {
		t.Fatalf("elapsed gap did not admit a probe: %+v", errs)
	}
	clock += probeGapBase // half the doubled gap: still gated
	skippedBefore := r.Errors()[1].Skipped
	if err := put1(r, 111, e); err != nil {
		t.Fatal(err)
	}
	if errs := r.Errors(); errs[1].Errors != 2 || errs[1].Skipped == skippedBefore {
		t.Fatalf("doubled gap not respected: %+v", errs)
	}

	// Node heals; the next admitted probe restores it completely.
	fb.setDown(false)
	clock += 2 * probeGapBase
	if err := put1(r, 112, e); err != nil {
		t.Fatal(err)
	}
	errsAfterHeal := r.Errors()
	for k := uint64(113); k < 118; k++ {
		if err := put1(r, k, e); err != nil {
			t.Fatal(err)
		}
	}
	if errs := r.Errors(); errs[1] != errsAfterHeal[1] {
		t.Fatalf("healed node still gated or charged: %+v -> %+v", errsAfterHeal, errs)
	}
	if _, ok, _ := get1(fb.lb, 112); !ok {
		t.Fatal("post-heal publish did not land on the resurrected node")
	}

	// Entries published while node-b was gated live only on node-a; a ring
	// read finds them there and back-fills node-b.
	if _, ok, _ := get1(fb.lb, 100); ok {
		t.Fatal("gated node somehow holds an entry published while down")
	}
	if got, ok, err := get1(r, 100); err != nil || !ok || got != e {
		t.Fatalf("read of gated-era entry: %+v ok=%v err=%v", got, ok, err)
	}
	if _, ok, _ := get1(fb.lb, 100); !ok {
		t.Fatal("read repair did not back-fill the resurrected node")
	}

	// Total loss while gated: both nodes down and gated → errNodeDown, an
	// error that cost zero network touches.
	fa.setDown(true)
	fb.setDown(true)
	put1(r, 200, e) // charge + gate node-a (node-b is live again... take it down too)
	clock += 2 * probeGapCap
	put1(r, 201, e) // probes both, fails both, re-arms both gates
	aErrs := r.Errors()
	if err := put1(r, 202, e); err != errNodeDown {
		t.Fatalf("fully gated put: %v, want errNodeDown", err)
	}
	if errs := r.Errors(); errs[0].Errors != aErrs[0].Errors || errs[1].Errors != aErrs[1].Errors {
		t.Fatalf("fully gated put touched a node: %+v -> %+v", aErrs, errs)
	}
	if _, ok, err := get1(r, 202); ok || err != errNodeDown {
		t.Fatalf("fully gated get: ok=%v err=%v, want errNodeDown", ok, err)
	}
}

// TestRingBatchOpsRespectGate runs the batched paths against a gated
// node: MultiGet serves every key off the live replica without touching
// the gated one (and does not back-fill into it), MultiPut skips it, and
// after the gap plus recovery one probe restores batched publishing.
func TestRingBatchOpsRespectGate(t *testing.T) {
	fa := &flakyCache{lb: NewLoopback(0)}
	fb := &flakyCache{lb: NewLoopback(0)}
	r, err := NewRing(2, RingNode{Name: "node-a", Cache: fa}, RingNode{Name: "node-b", Cache: fb})
	if err != nil {
		t.Fatal(err)
	}
	var clock int64
	r.now = func() int64 { return clock }

	keys := make([]uint64, 12)
	ents := make([]Entry, 12)
	for i := range keys {
		keys[i] = uint64(i)*0x9e3779b97f4a7c15 + 7
		ents[i] = Entry{PerReplica: float64(i), Fits: true}
	}
	if err := r.MultiPut(keys, ents); err != nil {
		t.Fatal(err)
	}

	fb.setDown(true)
	put1(r, 999, Entry{}) // arm node-b's gate
	bState := r.Errors()[1]

	out := make([]Entry, len(keys))
	okv := make([]bool, len(keys))
	if err := r.MultiGet(keys, out, okv); err != nil {
		t.Fatalf("batched read with a gated node: %v", err)
	}
	for i := range keys {
		if !okv[i] || out[i] != ents[i] {
			t.Fatalf("key %d unreadable behind the gate: ok=%v", i, okv[i])
		}
	}
	if errs := r.Errors(); errs[1].Errors != bState.Errors {
		t.Fatalf("batched read hammered the gated node: %+v", errs)
	}
	if errs := r.Errors(); errs[1].Skipped == bState.Skipped {
		t.Fatalf("batched read skips not counted: %+v", errs)
	}
	if err := r.MultiPut(keys, ents); err != nil {
		t.Fatalf("batched publish with a gated node: %v", err)
	}

	// Heal + gap: batched ops flow to node-b again.
	fb.setDown(false)
	clock += probeGapCap
	if err := r.MultiPut(keys, ents); err != nil {
		t.Fatal(err)
	}
	healthy := r.Errors()[1]
	if err := r.MultiGet(keys, out, okv); err != nil {
		t.Fatal(err)
	}
	if errs := r.Errors(); errs[1] != healthy {
		t.Fatalf("resurrected node still gated for batches: %+v", errs)
	}
}
