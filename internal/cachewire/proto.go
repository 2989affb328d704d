package cachewire

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Server serves the cache protocol over TCP, backed by a bounded LRU
// store. Construct with NewServer (or NewServerFromSnapshot), then Serve
// an accepted listener.
type Server struct {
	s *store

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{}
	closed bool
}

// NewServer builds a cache server bounded to the given entry count
// (0 → 65536).
func NewServer(entries int) *Server {
	return &Server{s: newStore(entries), conns: map[net.Conn]struct{}{}}
}

// Len reports the number of stored entries.
func (sv *Server) Len() int { return sv.s.len() }

// Serve accepts connections on l until the listener is closed, handling
// each connection's request stream in its own goroutine. A connection
// that sends a malformed request is closed; the store is untouched.
func (sv *Server) Serve(l net.Listener) error {
	sv.mu.Lock()
	if sv.closed {
		// Close already ran (it can win the race against a freshly
		// spawned Serve goroutine): the listener was never registered, so
		// retire it here instead of parking in Accept forever.
		sv.mu.Unlock()
		l.Close()
		return nil
	}
	sv.ln = l
	sv.mu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		sv.mu.Lock()
		if sv.closed {
			sv.mu.Unlock()
			conn.Close()
			return nil
		}
		sv.conns[conn] = struct{}{}
		sv.mu.Unlock()
		go sv.handle(conn)
	}
}

// Close stops the listener and severs every live connection, so clients
// see a genuinely dead tier (not a half-closed one) and degrade.
func (sv *Server) Close() error {
	sv.mu.Lock()
	defer sv.mu.Unlock()
	sv.closed = true
	var err error
	if sv.ln != nil {
		err = sv.ln.Close()
	}
	for conn := range sv.conns {
		conn.Close()
	}
	sv.conns = map[net.Conn]struct{}{}
	return err
}

func (sv *Server) handle(conn net.Conn) {
	defer func() {
		conn.Close()
		sv.mu.Lock()
		delete(sv.conns, conn)
		sv.mu.Unlock()
	}()
	// All per-connection scratch lives here and is reused across the
	// request stream: the read side is buffered so multi-part frames cost
	// one syscall, batch payloads grow buf once and keep it, and the
	// steady-state serving path allocates nothing per request.
	br := bufio.NewReaderSize(conn, 1<<12)
	okResp := [1]byte{statusOK}
	var cnt [4]byte
	var keys []uint64
	var ents []Entry
	var buf []byte // batch payload in, batch response out
	for {
		op, err := br.ReadByte()
		if err != nil {
			return // EOF between requests is the normal hang-up
		}
		switch op {
		case opMultiGet:
			if _, err := io.ReadFull(br, cnt[:]); err != nil {
				return
			}
			n := binary.LittleEndian.Uint32(cnt[:])
			if n > MaxBatch {
				return // oversize count: reject before reading the payload
			}
			need := int(n) * 8
			buf = grow(buf, need)
			if _, err := io.ReadFull(br, buf[:need]); err != nil {
				return
			}
			keys = keys[:0]
			for i := 0; i < int(n); i++ {
				keys = append(keys, binary.LittleEndian.Uint64(buf[i*8:]))
			}
			// The keys are copied out, so buf can turn around and carry
			// the response: status, echoed count, then a present marker
			// per key with the entry behind each hit.
			buf = append(buf[:0], statusMulti)
			buf = append(buf, cnt[:]...)
			buf = sv.s.appendMultiGet(buf, keys)
			if _, err := conn.Write(buf); err != nil {
				return
			}
		case opMultiPut:
			if _, err := io.ReadFull(br, cnt[:]); err != nil {
				return
			}
			n := binary.LittleEndian.Uint32(cnt[:])
			if n > MaxBatch {
				return
			}
			const rec = 8 + EntrySize
			need := int(n) * rec
			buf = grow(buf, need)
			if _, err := io.ReadFull(br, buf[:need]); err != nil {
				return
			}
			// Validate the whole vector before storing any of it: a batch
			// with one skewed entry is rejected as a unit and the conn
			// dropped.
			keys, ents = keys[:0], ents[:0]
			for i := 0; i < int(n); i++ {
				off := i * rec
				e, err := DecodeEntry(buf[off+8 : off+rec])
				if err != nil {
					return
				}
				keys = append(keys, binary.LittleEndian.Uint64(buf[off:]))
				ents = append(ents, e)
			}
			sv.s.putBatch(keys, ents)
			if _, err := conn.Write(okResp[:]); err != nil {
				return
			}
		default:
			return // unknown op (or an older build's single-key get/put): desync, close
		}
	}
}

// Client is a Cache backed by a remote Server. It keeps
// a small free list of connections so concurrent sweep workers don't
// serialize on one socket; each pooled connection owns its request
// buffer and buffered reader, so steady-state round trips allocate
// nothing. A connection that sees any I/O or protocol error is discarded
// and the next request dials a fresh one, so a restarted server heals
// transparently. Every dial and round trip carries its own deadline
// (dialTimeout / writeTimeout / readTimeout) — a black-holed tier
// (partition, silent packet drop) surfaces as a counted error within one
// budget instead of parking sweep workers on kernel TCP retransmission
// timeouts, which is what keeps the Tuner's "remote errors degrade,
// never stall" contract honest.
//
// Transient transport failures (dial refused, connection reset, deadline
// expiry) are retried up to clientAttempts times with exponential
// backoff plus jitter, each attempt on a fresh connection — so a server
// restart between two requests heals inside one call instead of costing
// a counted error. Protocol errors (version skew, desync, unexpected
// status) are never retried: they are deterministic, and hammering a
// mis-speaking peer only delays the degraded-to-miss verdict. Retried
// puts are safe by construction: entries are deterministic functions of
// their key, so replaying a possibly-half-applied MultiPut overwrites
// byte-identical values (put is idempotent).
type Client struct {
	addr    string
	mu      sync.Mutex
	free    []*pconn
	retries atomic.Int64
}

// RetryStats reports how many transient-error retries this client has
// issued since construction — the per-transport companion of
// core.Tuner.RemoteErrors: a rising retry count with flat RemoteErrors
// means the backoff is absorbing a flaky tier; both rising means the
// tier is down harder than clientAttempts can hide.
func (c *Client) RetryStats() int64 { return c.retries.Load() }

// retriesTotal counts transient-error retries process-wide, across every
// Client (the package-level twin of Frames).
var retriesTotal atomic.Int64

// Retries reports the process-wide transport retry count.
func Retries() int64 { return retriesTotal.Load() }

// permanentError marks a failure retrying cannot fix (protocol or
// version skew); the retry loop returns it immediately.
type permanentError struct{ err error }

func (p permanentError) Error() string { return p.err.Error() }
func (p permanentError) Unwrap() error { return p.err }

// errPermanent wraps a deterministic protocol failure.
func errPermanent(err error) error { return permanentError{err: err} }

// Retry policy: clientAttempts total tries per operation, exponential
// backoff from retryBaseDelay with up to 50% random jitter (decorrelates
// a worker fleet hammering one recovering server), capped by the dial
// and I/O deadlines each attempt already carries.
const (
	clientAttempts = 3
	retryBaseDelay = 5 * time.Millisecond
)

// retryDelay is the pre-attempt sleep: base·2^(attempt-1), plus jitter.
func retryDelay(attempt int) time.Duration {
	d := retryBaseDelay << (attempt - 1)
	return d + time.Duration(rand.Int64N(int64(d)/2+1))
}

// withRetry runs op on a pooled (or freshly dialed) connection,
// retrying transient failures on a fresh connection after a backoff. op
// must neither close the connection nor check it back in: withRetry
// closes it on any error return (an errored connection may hold
// undrained response bytes and can never be pooled) and pools it after
// a clean return.
func (c *Client) withRetry(op func(p *pconn) error) error {
	var err error
	for attempt := 0; attempt < clientAttempts; attempt++ {
		if attempt > 0 {
			c.retries.Add(1)
			retriesTotal.Add(1)
			time.Sleep(retryDelay(attempt))
		}
		var p *pconn
		p, err = c.checkout()
		if err != nil {
			continue // dial failure: transient by definition
		}
		err = op(p)
		if err == nil {
			c.checkin(p)
			return nil
		}
		p.c.Close()
		var perm permanentError
		if errors.As(err, &perm) {
			return perm.err
		}
	}
	return err
}

// pconn is one pooled connection with its owned I/O state: buf builds
// every request and receives every fixed-width response chunk, and br
// buffers reads so a multi-part response costs one syscall. Both live
// exactly as long as the connection, which is what makes a round trip
// allocation-free in the steady state.
type pconn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte
}

func newPconn(c net.Conn) *pconn {
	return &pconn{c: c, br: bufio.NewReaderSize(c, 1<<12), buf: make([]byte, 0, 64)}
}

// Timeouts: one per phase, so a stall is attributed to the phase that
// hung. Requests are a handful of bytes against an in-memory map, so
// seconds of budget is pure safety margin, not a tuning knob.
const (
	dialTimeout  = 5 * time.Second // establishing a fresh connection
	writeTimeout = 5 * time.Second // flushing one request frame
	readTimeout  = 5 * time.Second // draining one response
)

// arm sets the per-phase deadlines for one request/response exchange:
// the write deadline covers the request flush, the read deadline the
// whole response drain (set once here, not per chunk — a response is one
// server write, so a healthy tier delivers it within one budget).
func (p *pconn) arm() {
	now := time.Now()
	p.c.SetWriteDeadline(now.Add(writeTimeout))
	p.c.SetReadDeadline(now.Add(writeTimeout + readTimeout))
}

// Dial validates addr by establishing (and pooling) one connection and
// returns the client.
func Dial(addr string) (*Client, error) {
	conn, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, fmt.Errorf("cachewire: dial %s: %w", addr, err)
	}
	return &Client{addr: addr, free: []*pconn{newPconn(conn)}}, nil
}

func (c *Client) checkout() (*pconn, error) {
	c.mu.Lock()
	if n := len(c.free); n > 0 {
		p := c.free[n-1]
		c.free = c.free[:n-1]
		c.mu.Unlock()
		return p, nil
	}
	c.mu.Unlock()
	conn, err := net.DialTimeout("tcp", c.addr, dialTimeout)
	if err != nil {
		return nil, err
	}
	return newPconn(conn), nil
}

func (c *Client) checkin(p *pconn) {
	c.mu.Lock()
	c.free = append(c.free, p)
	c.mu.Unlock()
}

// Get resolves one key as a MultiGet frame of one. It is not part of the
// Cache seam — a sweep never asks for a single key — and exists to price
// the smallest round trip the protocol has.
func (c *Client) Get(key uint64) (Entry, bool, error) {
	keys := [1]uint64{key}
	var out [1]Entry
	var ok [1]bool
	err := c.multiGet(keys[:], out[:], ok[:])
	return out[0], ok[0], err
}

// MultiGet implements Cache: one round trip resolves the whole key
// vector (chunked transparently at MaxBatch). The response is validated
// strictly — a wrong status, count skew against the request, unknown
// present markers and undecodable entries all poison the connection and
// surface as one error.
func (c *Client) MultiGet(keys []uint64, out []Entry, ok []bool) error {
	if err := checkGet(keys, out, ok); err != nil {
		return err
	}
	for start := 0; start < len(keys); start += MaxBatch {
		end := min(start+MaxBatch, len(keys))
		if err := c.multiGet(keys[start:end], out[start:end], ok[start:end]); err != nil {
			return err
		}
	}
	return nil
}

// multiGet resolves one chunk. A chunk whose exchange finally fails
// reports no hit, however far into the response its last attempt read.
func (c *Client) multiGet(keys []uint64, out []Entry, ok []bool) error {
	err := c.withRetry(func(p *pconn) error {
		// A retried chunk restates the whole request; gets are read-only,
		// so replaying after a half-read response is trivially safe. Reset
		// this chunk's hit markers in case a prior attempt filled some.
		clear(out)
		clear(ok)
		p.arm()
		p.buf = appendMultiGetRequest(p.buf[:0], keys)
		frames.Add(1)
		if _, err := p.c.Write(p.buf); err != nil {
			return err
		}
		// Status is checked before the count is read: a wrong status byte
		// is a protocol desync (permanent) even if the peer hangs up right
		// after it, and must not be retried as if it were a transport blip.
		status, err := p.br.ReadByte()
		if err != nil {
			return err
		}
		if status != statusMulti {
			return errPermanent(fmt.Errorf("cachewire: unexpected multiget status %d", status))
		}
		p.buf = grow(p.buf, 4) // echoed count
		if _, err := io.ReadFull(p.br, p.buf[:4]); err != nil {
			return err
		}
		if n := binary.LittleEndian.Uint32(p.buf[:4]); int(n) != len(keys) {
			return errPermanent(fmt.Errorf("cachewire: multiget response carries %d keys, want %d", n, len(keys)))
		}
		for i := range keys {
			marker, err := p.br.ReadByte()
			if err != nil {
				return err
			}
			switch marker {
			case 0:
			case 1:
				p.buf = grow(p.buf, EntrySize)
				if _, err := io.ReadFull(p.br, p.buf[:EntrySize]); err != nil {
					return err
				}
				e, err := DecodeEntry(p.buf[:EntrySize])
				if err != nil {
					return errPermanent(err)
				}
				out[i], ok[i] = e, true
			default:
				return errPermanent(fmt.Errorf("cachewire: unknown multiget marker %d", marker))
			}
		}
		return nil
	})
	if err != nil {
		clear(out)
		clear(ok)
	}
	return err
}

// MultiPut implements Cache: one round trip publishes the whole vector
// (chunked transparently at MaxBatch).
func (c *Client) MultiPut(keys []uint64, entries []Entry) error {
	if err := checkPut(keys, entries); err != nil {
		return err
	}
	for start := 0; start < len(keys); start += MaxBatch {
		end := min(start+MaxBatch, len(keys))
		if err := c.multiPut(keys[start:end], entries[start:end]); err != nil {
			return err
		}
	}
	return nil
}

func (c *Client) multiPut(keys []uint64, entries []Entry) error {
	return c.withRetry(func(p *pconn) error {
		// Replaying a chunk whose response was lost may re-store entries
		// the server already applied; puts are idempotent (each key's
		// entry is a deterministic function of the key), so the replay
		// overwrites byte-identical values.
		p.arm()
		p.buf = appendMultiPutRequest(p.buf[:0], keys, entries)
		frames.Add(1)
		if _, err := p.c.Write(p.buf); err != nil {
			return err
		}
		status, err := p.br.ReadByte()
		if err != nil {
			return err
		}
		if status != statusOK {
			return errPermanent(fmt.Errorf("cachewire: unexpected multiput status %d", status))
		}
		return nil
	})
}

// Close drops every pooled connection.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, p := range c.free {
		p.c.Close()
	}
	c.free = nil
	return nil
}
