package cachewire

import (
	"encoding/binary"
	"io"
	"net"
	"sync"
	"testing"
	"time"
)

// TestCloseBeforeServe pins the shutdown race: Close winning the race
// against a freshly spawned Serve goroutine must still retire the
// listener — Serve returns promptly instead of parking in Accept, and
// the port is released.
func TestCloseBeforeServe(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(0)
	srv.Close() // before Serve ever registers the listener
	done := make(chan error, 1)
	go func() { done <- srv.Serve(l) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("Serve after Close: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve parked in Accept after Close")
	}
	if conn, err := net.Dial("tcp", l.Addr().String()); err == nil {
		conn.Close()
		t.Fatal("listener still accepting after Close")
	}
}

// startServer runs a Server on an ephemeral loopback port and returns a
// connected client. Both are torn down with the test.
func startServer(t *testing.T, entries int) (*Server, *Client) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(entries)
	go srv.Serve(l)
	t.Cleanup(func() { l.Close() })
	c, err := Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return srv, c
}

// TestClientServerRoundTrip walks the protocol end to end over real TCP:
// miss, put, hit, overwrite.
func TestClientServerRoundTrip(t *testing.T) {
	_, c := startServer(t, 0)
	if _, ok, err := c.Get(42); err != nil || ok {
		t.Fatalf("cold get: ok=%v err=%v, want miss", ok, err)
	}
	e := Entry{PerReplica: 123.5, MaxGB: 38.25, Fits: true}
	if err := put1(c, 42, e); err != nil {
		t.Fatal(err)
	}
	got, ok, err := c.Get(42)
	if err != nil || !ok || got != e {
		t.Fatalf("get after put: %+v ok=%v err=%v, want %+v", got, ok, err, e)
	}
	e2 := Entry{MaxGB: 61, Pruned: true}
	if err := put1(c, 42, e2); err != nil {
		t.Fatal(err)
	}
	if got, _, _ := c.Get(42); got != e2 {
		t.Fatalf("overwrite lost: %+v, want %+v", got, e2)
	}
}

// TestClientServerConcurrent hammers one server from many goroutines
// through one pooled client — the shape of a sharded sweep's workers all
// publishing and probing at once. Run under -race in CI.
func TestClientServerConcurrent(t *testing.T) {
	srv, c := startServer(t, 4096)
	const (
		workers = 8
		keys    = 64
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < keys; k++ {
				key := uint64(k)
				e := Entry{PerReplica: float64(k), MaxGB: float64(k) / 2, Fits: k%2 == 0}
				if err := put1(c, key, e); err != nil {
					t.Error(err)
					return
				}
				got, ok, err := c.Get(key)
				if err != nil || !ok || got != e {
					t.Errorf("worker %d key %d: %+v ok=%v err=%v", w, k, got, ok, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if n := srv.Len(); n != keys {
		t.Fatalf("server holds %d entries, want %d", n, keys)
	}
}

// TestServerDropsMalformedConn sends a version-skewed put and an unknown
// op: the server must close the connection both times without storing
// anything, and a healthy client must keep working afterwards.
func TestServerDropsMalformedConn(t *testing.T) {
	srv, c := startServer(t, 0)
	addr := func() string {
		// The pooled client dials the same address; reuse it.
		return c.addr
	}()

	send := func(raw []byte) {
		t.Helper()
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(raw); err != nil {
			t.Fatal(err)
		}
		// The server answers a malformed request by hanging up: the next
		// read must see EOF, not a response byte.
		var b [1]byte
		if _, err := io.ReadFull(conn, b[:]); err != io.EOF {
			t.Fatalf("malformed request got response %v err=%v, want EOF", b, err)
		}
	}

	// Version-skewed put payload.
	skewed := binary.LittleEndian.AppendUint32([]byte{opMultiPut}, 1)
	skewed = binary.LittleEndian.AppendUint64(skewed, 7)
	entry := AppendEntry(nil, Entry{PerReplica: 1})
	entry[0] = Version + 1
	send(append(skewed, entry...))

	// Unknown op.
	unknown := make([]byte, 9)
	unknown[0] = 0xee
	send(unknown)

	if n := srv.Len(); n != 0 {
		t.Fatalf("malformed requests stored %d entries", n)
	}
	if err := put1(c, 7, Entry{PerReplica: 2, Fits: true}); err != nil {
		t.Fatalf("healthy client after malformed peers: %v", err)
	}
	if _, ok, err := c.Get(7); err != nil || !ok {
		t.Fatalf("healthy get after malformed peers: ok=%v err=%v", ok, err)
	}
}

// TestClientHealsAfterServerRestart kills the listener mid-conversation
// and brings a new server up on the same port: the pooled client must
// discard its dead connections and recover.
func TestClientHealsAfterServerRestart(t *testing.T) {
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
	l.Close()

	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Skipf("cannot rebind %s: %v", addr, err)
	}
	defer l2.Close()
	srv2 := NewServer(0)
	go srv2.Serve(l2)

	// The first attempt may ride a pooled dead connection and error; the
	// client must shed it and succeed within a couple of tries.
	var lastErr error
	for i := 0; i < 3; i++ {
		if lastErr = put1(c, 2, Entry{PerReplica: 6}); lastErr == nil {
			break
		}
	}
	if lastErr != nil {
		t.Fatalf("client never healed: %v", lastErr)
	}
	if _, ok, err := c.Get(2); err != nil || !ok {
		t.Fatalf("get after heal: ok=%v err=%v", ok, err)
	}
}
