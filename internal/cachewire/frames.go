package cachewire

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// The TCP protocol is as fixed-width as the entry codec: every request
// carries a length-prefixed key or entry vector, so one round trip
// carries a whole sweep's key set:
//
//	op(1)=opMultiGet count(4) key(8)×count
//	op(1)=opMultiPut count(4) (key(8) entry(18))×count
//
// and the responses are
//
//	status(1)=statusMulti count(4) (present(1) [entry(18)])×count
//	status(1)=statusOK
//
// count is a little-endian uint32 echoed back verbatim in the MultiGet
// response, and present is strictly 0 or 1. The framing is version-free;
// the entry payload carries the version byte, and the decode discipline
// is DecodeEntry's, lifted to vectors: both edges reject counts above
// MaxBatch, count skew between request and response, unknown present
// markers and any entry DecodeEntry rejects — and a MultiPut frame is
// validated whole before any of it is stored, so a version-skewed or
// truncated publisher never half-applies a batch. Any other op byte —
// including 1 and 2, the single-key get and put of older builds — is a
// desync the server answers by hanging up, which such a peer reads as a
// miss. A version-skewed peer therefore never pollutes the store or a
// ranking: its publishes are dropped and its probes miss, degrading a
// mixed fleet's hit rate until it converges on one build.
const (
	opMultiGet = 3
	opMultiPut = 4

	statusOK    = 2
	statusMulti = 3
)

// MaxBatch bounds the key count of one batched frame. Both edges reject
// larger counts before reading the payload, so a corrupt or hostile
// length prefix cannot make a peer allocate unbounded memory. Client
// MultiGet/MultiPut split larger vectors into MaxBatch-sized frames
// transparently.
const MaxBatch = 1 << 16

// frames counts client-side cache round trips process-wide: one per
// MultiGet/MultiPut frame, on both the TCP Client and the Loopback
// stand-in. It is the observability hook behind the batching guarantee —
// a repeat sweep with prefetch must cost O(1) frames per shard, not
// O(cells) — mirroring what core.SimRuns does for simulations.
var frames atomic.Int64

// Frames reports the process-wide count of cache round trips issued by
// client-side transports. Tests assert deltas of this counter.
func Frames() int64 { return frames.Load() }

// checkGet is every MultiGet's pre-flight: vectors that disagree in
// length fail before touching the wire or a store, and ok starts all
// false so a call that stops early reports only the hits it found.
func checkGet(keys []uint64, out []Entry, ok []bool) error {
	if len(out) != len(keys) || len(ok) != len(keys) {
		return fmt.Errorf("cachewire: batch get vectors disagree: %d keys, %d entries, %d oks",
			len(keys), len(out), len(ok))
	}
	clear(ok)
	return nil
}

// checkPut is every MultiPut's pre-flight.
func checkPut(keys []uint64, entries []Entry) error {
	if len(entries) != len(keys) {
		return fmt.Errorf("cachewire: batch put vectors disagree: %d keys, %d entries",
			len(keys), len(entries))
	}
	return nil
}

// appendMultiGetRequest appends the MultiGet request frame for keys.
// len(keys) must not exceed MaxBatch (callers chunk).
func appendMultiGetRequest(dst []byte, keys []uint64) []byte {
	dst = append(dst, opMultiGet)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for _, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
	}
	return dst
}

// appendMultiPutRequest appends the MultiPut request frame for the
// key/entry pairs. len(keys) must not exceed MaxBatch (callers chunk).
func appendMultiPutRequest(dst []byte, keys []uint64, entries []Entry) []byte {
	dst = append(dst, opMultiPut)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(keys)))
	for i, k := range keys {
		dst = binary.LittleEndian.AppendUint64(dst, k)
		dst = AppendEntry(dst, entries[i])
	}
	return dst
}

// grow returns b resized to n bytes, reallocating only when the capacity
// is short — the buffer-reuse primitive behind the zero-allocation
// steady state of pooled connections and server handlers.
func grow(b []byte, n int) []byte {
	if cap(b) < n {
		return make([]byte, n)
	}
	return b[:n]
}
