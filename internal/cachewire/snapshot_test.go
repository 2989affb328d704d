package cachewire

import (
	"bytes"
	"math/rand"
	"net"
	"testing"
)

// TestSnapshotRoundTrip snapshots a populated server and restores it:
// every entry must come back bit-for-bit, reachable over a real TCP
// client against the restored server.
func TestSnapshotRoundTrip(t *testing.T) {
	sv := NewServer(0)
	rng := rand.New(rand.NewSource(21))
	ents := randEntries(rng, 300)
	for i, e := range ents {
		sv.s.put(uint64(i)+1, e)
	}
	var buf bytes.Buffer
	if err := sv.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewServerFromSnapshot(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range ents {
		got, ok := restored.s.m.Get(uint64(i) + 1)
		if !ok || !sameEntryBits(got, e) {
			t.Fatalf("entry %d lost or mutated across snapshot: ok=%v", i, ok)
		}
	}

	// The restored server must serve the usual protocol.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go restored.Serve(ln)
	defer restored.Close()
	c, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	got, ok, err := c.Get(1)
	if err != nil || !ok || !sameEntryBits(got, ents[0]) {
		t.Fatalf("restored server over TCP: %+v ok=%v err=%v", got, ok, err)
	}
}

// TestSnapshotPreservesRecency restores a snapshot into a server with a
// tighter entry bound: because records run least-recent first, eviction
// during restore must drop exactly the coldest entries, keeping the
// most recently used ones — the same set live eviction would have kept.
func TestSnapshotPreservesRecency(t *testing.T) {
	sv := NewServer(10)
	for k := uint64(1); k <= 10; k++ {
		sv.s.put(k, Entry{PerReplica: float64(k)})
	}
	// Touch 1..3 so they are the most recent alongside 8..10.
	for k := uint64(1); k <= 3; k++ {
		sv.s.m.Get(k)
	}
	var buf bytes.Buffer
	if err := sv.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	restored, err := NewServerFromSnapshot(bytes.NewReader(buf.Bytes()), 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []uint64{8, 9, 10, 1, 2, 3} {
		if _, ok := restored.s.m.Get(k); !ok {
			t.Errorf("recent key %d evicted by tighter restore bound", k)
		}
	}
	for _, k := range []uint64{4, 5, 6, 7} {
		if _, ok := restored.s.m.Get(k); ok {
			t.Errorf("cold key %d survived restore into a 6-entry bound", k)
		}
	}
}

// TestSnapshotEmpty pins the degenerate case: an empty server snapshots
// to header-only bytes and restores to an empty server.
func TestSnapshotEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := NewServer(0).Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != 16 {
		t.Fatalf("empty snapshot is %d bytes, want 16 (magic + count)", buf.Len())
	}
	restored, err := NewServerFromSnapshot(bytes.NewReader(buf.Bytes()), 0)
	if err != nil {
		t.Fatal(err)
	}
	if restored.s.m.Len() != 0 {
		t.Fatalf("empty snapshot restored %d entries", restored.s.m.Len())
	}
}

// TestSnapshotRestoreRejects corrupts a valid snapshot every way the
// format forbids; each must fail restore rather than seed a partial or
// reinterpreted store.
func TestSnapshotRestoreRejects(t *testing.T) {
	sv := NewServer(0)
	sv.s.put(1, Entry{PerReplica: 1, Fits: true})
	sv.s.put(2, Entry{PerReplica: 2})
	var buf bytes.Buffer
	if err := sv.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	corrupt := func(name string, mutate func([]byte) []byte) {
		b := mutate(append([]byte(nil), good...))
		if _, err := NewServerFromSnapshot(bytes.NewReader(b), 0); err == nil {
			t.Errorf("%s: restore accepted corrupt snapshot", name)
		}
	}
	corrupt("bad magic", func(b []byte) []byte { b[0] = 'X'; return b })
	corrupt("version skew in magic", func(b []byte) []byte { b[6] = '0' + Version + 1; return b })
	corrupt("version skew in entry", func(b []byte) []byte { b[16+8] = Version + 1; return b })
	corrupt("unknown flag in entry", func(b []byte) []byte { b[16+8+1] |= 0x80; return b })
	corrupt("truncated mid-record", func(b []byte) []byte { return b[:len(b)-5] })
	corrupt("truncated header", func(b []byte) []byte { return b[:10] })
	corrupt("trailing bytes", func(b []byte) []byte { return append(b, 0) })
	corrupt("count overstates records", func(b []byte) []byte { b[8]++; return b })
	corrupt("count understates records", func(b []byte) []byte { b[8]--; return b })
}
