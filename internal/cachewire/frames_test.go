package cachewire

import (
	"encoding/binary"
	"io"
	"math"
	"math/rand"
	"net"
	"testing"
	"time"
)

// randEntries builds n deterministic pseudo-random entries, including
// the codec's edge payloads (infinities, zero, negative zero).
func randEntries(rng *rand.Rand, n int) []Entry {
	out := make([]Entry, n)
	for i := range out {
		e := Entry{
			PerReplica: rng.NormFloat64() * 100,
			MaxGB:      rng.Float64() * 80,
			Fits:       rng.Intn(2) == 0,
			Pruned:     rng.Intn(3) == 0,
		}
		switch rng.Intn(8) {
		case 0:
			e.PerReplica = math.Inf(1)
		case 1:
			e.MaxGB = math.Copysign(0, -1)
		}
		out[i] = e
	}
	return out
}

// batchTransports returns the three client-side transports under their
// wire names, each backed by a fresh store.
func batchTransports(t *testing.T) map[string]Cache {
	t.Helper()
	_, tcp := startServer(t, 0)
	lb := NewLoopback(0)
	ring := mustRing(t, 2, "a", NewLoopback(0), "b", NewLoopback(0), "c", NewLoopback(0))
	return map[string]Cache{"tcp": tcp, "loopback": lb, "ring": ring}
}

// put1 publishes one pair as a one-key batch.
func put1(c Cache, key uint64, e Entry) error {
	return c.MultiPut([]uint64{key}, []Entry{e})
}

// get1 resolves one key as a one-key batch.
func get1(c Cache, key uint64) (Entry, bool, error) {
	out, ok := make([]Entry, 1), make([]bool, 1)
	err := c.MultiGet([]uint64{key}, out, ok)
	return out[0], ok[0], err
}

func mustRing(t *testing.T, replication int, pairs ...any) *Ring {
	t.Helper()
	var nodes []RingNode
	for i := 0; i < len(pairs); i += 2 {
		nodes = append(nodes, RingNode{Name: pairs[i].(string), Cache: pairs[i+1].(Cache)})
	}
	r, err := NewRing(replication, nodes...)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

// TestMultiBatchRoundTripProperty is the batch property test on all
// three transports: random key/entry vectors MultiPut then MultiGet back
// bit-for-bit, with absent keys interleaved and reported as misses, at
// sizes from empty through a few thousand keys.
func TestMultiBatchRoundTripProperty(t *testing.T) {
	for name, c := range batchTransports(t) {
		rng := rand.New(rand.NewSource(7))
		for _, n := range []int{0, 1, 2, 17, 256, 3000} {
			keys := make([]uint64, n)
			for i := range keys {
				keys[i] = rng.Uint64() | 1 // odd keys stored; even keys probed as misses
			}
			ents := randEntries(rng, n)
			if err := c.MultiPut(keys, ents); err != nil {
				t.Fatalf("%s n=%d: multiput: %v", name, n, err)
			}
			// Probe a vector interleaving every stored key with an absent one.
			probe := make([]uint64, 0, 2*n)
			for _, k := range keys {
				probe = append(probe, k, k&^1)
			}
			out := make([]Entry, len(probe))
			ok := make([]bool, len(probe))
			if err := c.MultiGet(probe, out, ok); err != nil {
				t.Fatalf("%s n=%d: multiget: %v", name, n, err)
			}
			for i, k := range keys {
				if !ok[2*i] || !sameEntryBits(out[2*i], ents[i]) {
					t.Fatalf("%s n=%d key %#x: got %+v ok=%v, want %+v", name, n, k, out[2*i], ok[2*i], ents[i])
				}
				if ok[2*i+1] {
					t.Fatalf("%s n=%d: absent key %#x reported a hit", name, n, k&^1)
				}
			}
		}
	}
}

// sameEntryBits compares entries bit-for-bit (== would conflate -0/0).
func sameEntryBits(a, b Entry) bool {
	return math.Float64bits(a.PerReplica) == math.Float64bits(b.PerReplica) &&
		math.Float64bits(a.MaxGB) == math.Float64bits(b.MaxGB) &&
		a.Fits == b.Fits && a.Pruned == b.Pruned
}

// TestClientGetAgreesWithMultiGet cross-checks the client's one-key Get
// against the batch it is built on: entries published in one- and
// many-key batches read back identically through either, and a miss is a
// miss through both.
func TestClientGetAgreesWithMultiGet(t *testing.T) {
	_, c := startServer(t, 0)
	e1 := Entry{PerReplica: 12.5, MaxGB: 3, Fits: true}
	e2 := Entry{MaxGB: 99, Pruned: true}
	if err := put1(c, 1, e1); err != nil {
		t.Fatal(err)
	}
	if err := c.MultiPut([]uint64{2, 3}, []Entry{e2, e1}); err != nil {
		t.Fatal(err)
	}
	out := make([]Entry, 4)
	ok := make([]bool, 4)
	if err := c.MultiGet([]uint64{1, 2, 3, 4}, out, ok); err != nil {
		t.Fatal(err)
	}
	if !ok[0] || out[0] != e1 || !ok[1] || out[1] != e2 || !ok[2] || out[2] != e1 || ok[3] {
		t.Fatalf("batch read of mixed publishes: %+v %v", out, ok)
	}
	for i, k := range []uint64{1, 2, 3, 4} {
		if got, hit, err := c.Get(k); err != nil || hit != ok[i] || got != out[i] {
			t.Fatalf("Get(%d) = %+v hit=%v err=%v, MultiGet said %+v hit=%v", k, got, hit, err, out[i], ok[i])
		}
	}
}

// TestBatchVectorSizeMismatch pins the pre-flight validation shared by
// every transport: disagreeing vector lengths fail without touching the
// wire or the store.
func TestBatchVectorSizeMismatch(t *testing.T) {
	for name, c := range batchTransports(t) {
		if err := c.MultiGet([]uint64{1, 2}, make([]Entry, 1), make([]bool, 2)); err == nil {
			t.Errorf("%s: short entry vector accepted", name)
		}
		if err := c.MultiPut([]uint64{1, 2}, make([]Entry, 1)); err == nil {
			t.Errorf("%s: short put vector accepted", name)
		}
	}
}

// rawExchange dials addr, writes raw, and returns what the server sends
// back until it hangs up or `want` bytes arrive (want < 0 → read to EOF,
// expecting the hang-up).
func rawExchange(t *testing.T, addr string, raw []byte, want int) []byte {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write(raw); err != nil {
		t.Fatal(err)
	}
	if want < 0 {
		// Simulate a peer dying mid-stream: half-close so a server blocked
		// on the rest of a truncated frame sees EOF, then drain its side.
		conn.(*net.TCPConn).CloseWrite()
		got, _ := io.ReadAll(conn)
		return got
	}
	buf := make([]byte, want)
	if _, err := io.ReadFull(conn, buf); err != nil {
		t.Fatalf("reading %d response bytes: %v", want, err)
	}
	return buf
}

// TestServerRejectsOversizeCount sends batch frames whose count exceeds
// MaxBatch: the server must hang up before reading any payload, and the
// store stays empty.
func TestServerRejectsOversizeCount(t *testing.T) {
	srv, c := startServer(t, 0)
	for _, op := range []byte{opMultiGet, opMultiPut} {
		raw := []byte{op}
		raw = binary.LittleEndian.AppendUint32(raw, MaxBatch+1)
		if got := rawExchange(t, c.addr, raw, -1); len(got) != 0 {
			t.Fatalf("op %d oversize count: got %d response bytes, want hang-up", op, len(got))
		}
	}
	if srv.Len() != 0 {
		t.Fatalf("oversize frames stored %d entries", srv.Len())
	}
}

// TestServerRejectsRetiredSingleKeyOps replays the single-key frames an
// older build sends — get is op 1 key(8), put is op 2 key(8) entry(18) —
// against this server: each meets the unknown-op hang-up, which the old
// peer reads as a miss or a dropped publish, and the store is untouched.
func TestServerRejectsRetiredSingleKeyOps(t *testing.T) {
	srv, c := startServer(t, 0)
	if err := put1(c, 7, Entry{PerReplica: 1, Fits: true}); err != nil {
		t.Fatal(err)
	}
	get := binary.LittleEndian.AppendUint64([]byte{1}, 7)
	put := AppendEntry(binary.LittleEndian.AppendUint64([]byte{2}, 8), Entry{PerReplica: 2})
	for _, tc := range []struct {
		name string
		raw  []byte
	}{{"get", get}, {"put", put}} {
		t.Run(tc.name, func(t *testing.T) {
			if got := rawExchange(t, c.addr, tc.raw, -1); len(got) != 0 {
				t.Fatalf("retired %s answered with %d bytes, want hang-up", tc.name, len(got))
			}
			if srv.Len() != 1 {
				t.Fatalf("retired %s left %d entries, want the 1 stored before", tc.name, srv.Len())
			}
		})
	}
	if _, ok, err := get1(c, 8); ok || err != nil {
		t.Fatalf("retired put landed: ok=%v err=%v", ok, err)
	}
}

// TestServerRejectsSkewedBatch sends a MultiPut whose LAST entry is
// version-skewed: the whole frame must be rejected — connection dropped,
// not even the valid prefix stored.
func TestServerRejectsSkewedBatch(t *testing.T) {
	srv, c := startServer(t, 0)
	raw := []byte{opMultiPut}
	raw = binary.LittleEndian.AppendUint32(raw, 3)
	for k := uint64(1); k <= 3; k++ {
		raw = binary.LittleEndian.AppendUint64(raw, k)
		off := len(raw)
		raw = AppendEntry(raw, Entry{PerReplica: float64(k)})
		if k == 3 {
			raw[off] = Version + 1
		}
	}
	if got := rawExchange(t, c.addr, raw, -1); len(got) != 0 {
		t.Fatalf("skewed batch answered with %d bytes, want hang-up", len(got))
	}
	if srv.Len() != 0 {
		t.Fatalf("skewed batch half-applied: %d entries stored", srv.Len())
	}
	// Unknown flag bits are the other skew axis DecodeEntry rejects.
	raw = []byte{opMultiPut}
	raw = binary.LittleEndian.AppendUint32(raw, 1)
	raw = binary.LittleEndian.AppendUint64(raw, 9)
	off := len(raw)
	raw = AppendEntry(raw, Entry{})
	raw[off+1] = 0x80
	if got := rawExchange(t, c.addr, raw, -1); len(got) != 0 || srv.Len() != 0 {
		t.Fatalf("unknown-flag batch accepted: %d bytes, %d entries", len(got), srv.Len())
	}
}

// TestServerIgnoresTruncatedBatch closes the connection mid-frame: the
// declared count promises more records than arrive, and the store must
// be untouched when the read fails.
func TestServerIgnoresTruncatedBatch(t *testing.T) {
	srv, c := startServer(t, 0)
	raw := []byte{opMultiPut}
	raw = binary.LittleEndian.AppendUint32(raw, 3) // promises 3 records
	raw = binary.LittleEndian.AppendUint64(raw, 1) // delivers 1½
	raw = AppendEntry(raw, Entry{PerReplica: 1})
	raw = binary.LittleEndian.AppendUint64(raw, 2)
	if got := rawExchange(t, c.addr, raw, -1); len(got) != 0 {
		t.Fatalf("truncated batch answered with %d bytes", len(got))
	}
	if srv.Len() != 0 {
		t.Fatalf("truncated batch stored %d entries", srv.Len())
	}
}

// TestServerEmptyBatchFrames exercises count=0 on the raw wire — legal,
// answered, and the connection stays usable for the next request.
func TestServerEmptyBatchFrames(t *testing.T) {
	_, c := startServer(t, 0)
	raw := []byte{opMultiGet}
	raw = binary.LittleEndian.AppendUint32(raw, 0)
	resp := rawExchange(t, c.addr, raw, 5)
	if resp[0] != statusMulti || binary.LittleEndian.Uint32(resp[1:]) != 0 {
		t.Fatalf("empty multiget response %v", resp)
	}
	raw = []byte{opMultiPut}
	raw = binary.LittleEndian.AppendUint32(raw, 0)
	if resp := rawExchange(t, c.addr, raw, 1); resp[0] != statusOK {
		t.Fatalf("empty multiput status %d", resp[0])
	}
}

// TestClientRejectsCorruptBatchResponse puts a hostile "server" behind
// the client: count skew, an unknown present marker, a version-skewed
// entry, a wrong status and a response cut off mid-entry must each
// poison the connection and surface as an error with no hit reported —
// the client-side half of the strict decode discipline. The protocol
// errors fail on the first attempt; the truncation is a transport error,
// so every retry meets it again and the call fails once the retry budget
// is spent.
func TestClientRejectsCorruptBatchResponse(t *testing.T) {
	cases := []struct {
		name    string
		resp    func(n int) []byte
		retries int64
	}{
		{"count-skew", func(n int) []byte {
			b := []byte{statusMulti}
			b = binary.LittleEndian.AppendUint32(b, uint32(n+1))
			for i := 0; i <= n; i++ {
				b = append(b, 0)
			}
			return b
		}, 0},
		{"bad-marker", func(n int) []byte {
			b := []byte{statusMulti}
			b = binary.LittleEndian.AppendUint32(b, uint32(n))
			b = append(b, 7)
			return b
		}, 0},
		{"skewed-entry", func(n int) []byte {
			b := []byte{statusMulti}
			b = binary.LittleEndian.AppendUint32(b, uint32(n))
			b = append(b, 1)
			off := len(b)
			b = AppendEntry(b, Entry{})
			b[off] = Version + 1
			return b
		}, 0},
		// 1 was an older build's single-key hit status.
		{"wrong-status", func(n int) []byte { return []byte{1} }, 0},
		{"truncated", func(n int) []byte {
			b := []byte{statusMulti}
			b = binary.LittleEndian.AppendUint32(b, uint32(n))
			for i := 0; i < n; i++ {
				b = append(b, 1)
				b = AppendEntry(b, Entry{PerReplica: 3, Fits: true})
			}
			return b[:len(b)-EntrySize/2] // whole first hit, then death mid-entry
		}, clientAttempts - 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			l, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			go func() {
				for {
					conn, err := l.Accept()
					if err != nil {
						return
					}
					go func() {
						defer conn.Close()
						// Read the request frame to stay plausible, lie, hang up.
						var hdr [5]byte
						if _, err := io.ReadFull(conn, hdr[:]); err != nil {
							return
						}
						n := int(binary.LittleEndian.Uint32(hdr[1:]))
						io.CopyN(io.Discard, conn, int64(n*8))
						conn.Write(tc.resp(n))
					}()
				}
			}()
			c, err := Dial(l.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			out, ok := make([]Entry, 2), make([]bool, 2)
			start := time.Now()
			if err := c.MultiGet([]uint64{1, 2}, out, ok); err == nil {
				t.Fatal("corrupt batch response accepted")
			}
			if d := time.Since(start); d > readTimeout {
				t.Fatalf("corrupt response took %v to reject, past one read deadline", d)
			}
			if ok[0] || ok[1] || out[0] != (Entry{}) {
				t.Fatalf("rejected response still reported hits: %+v %v", out, ok)
			}
			if got := c.RetryStats(); got != tc.retries {
				t.Fatalf("%d retries, want %d", got, tc.retries)
			}
		})
	}
}

// TestClientRoundTripAllocs pins the zero-alloc satellite: steady-state
// one-key MultiPut and Get exchanges (hit and miss) run entirely on the
// pooled connection's owned buffers — zero heap allocations per round
// trip, same discipline as the sweep hot path.
func TestClientRoundTripAllocs(t *testing.T) {
	_, c := startServer(t, 0)
	keys, ents := []uint64{3}, []Entry{{PerReplica: 55, MaxGB: 7.5, Fits: true}}
	if err := c.MultiPut(keys, ents); err != nil { // warm the pooled conn and deadline timer
		t.Fatal(err)
	}
	if got := testing.AllocsPerRun(200, func() {
		if err := c.MultiPut(keys, ents); err != nil {
			t.Fatal(err)
		}
		if _, ok, err := c.Get(3); err != nil || !ok {
			t.Fatal("lost the entry mid-measurement")
		}
		if _, ok, _ := c.Get(4); ok {
			t.Fatal("phantom hit")
		}
	}); got != 0 {
		t.Errorf("steady-state MultiPut+Get+Get allocates %.1f times, want 0", got)
	}
}

// TestBatchChunksAboveMaxBatch drives a vector larger than one frame may
// carry through the public MultiGet/MultiPut: the client must split it
// into MaxBatch-sized frames transparently and reassemble the results.
func TestBatchChunksAboveMaxBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("chunking round trip moves ~3 MB through loopback TCP")
	}
	srv, c := startServer(t, MaxBatch+1000)
	n := MaxBatch + 500
	keys := make([]uint64, n)
	ents := make([]Entry, n)
	for i := range keys {
		keys[i] = uint64(i) + 1
		ents[i] = Entry{PerReplica: float64(i), Fits: true}
	}
	before := Frames()
	if err := c.MultiPut(keys, ents); err != nil {
		t.Fatal(err)
	}
	if got := Frames() - before; got != 2 {
		t.Fatalf("oversize put used %d frames, want 2", got)
	}
	if srv.Len() != n {
		t.Fatalf("server holds %d entries, want %d", srv.Len(), n)
	}
	out := make([]Entry, n)
	ok := make([]bool, n)
	if err := c.MultiGet(keys, out, ok); err != nil {
		t.Fatal(err)
	}
	for _, i := range []int{0, MaxBatch - 1, MaxBatch, n - 1} {
		if !ok[i] || out[i] != ents[i] {
			t.Fatalf("key %d lost across the chunk seam: %+v ok=%v", i, out[i], ok[i])
		}
	}
}
