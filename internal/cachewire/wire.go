// Package cachewire is the cross-process tier of the tuning service's
// evaluation cache: a versioned fixed-width binary codec for the compact
// evaluation entries core.Tuner caches, the batch Cache seam those
// entries travel through (MultiGet/MultiPut over key vectors), and three
// implementations of that seam — a plain-TCP Client/Server pair for real
// multi-process deployments, a replicating Ring over several of them,
// and an in-process Loopback for tests and single-process wiring.
//
// The design leans on two properties: cached evaluation results are tiny
// pointer-free value types (two float64 scalars and a few booleans), and
// cache keys already reduce to a stable 64-bit hash of (cluster
// fingerprint × model config × scheme × shape). That makes the wire
// format trivial — an 8-byte key and an 18-byte entry — and makes every
// implementation of Cache interchangeable behind the Tuner: a sweep
// resolves its in-process misses against this tier in one MultiGet and
// publishes its fresh evaluations in one MultiPut.
//
// The entry encoding is versioned (the first byte) and strictly sized:
// Decode rejects version skew and any payload that is not exactly
// EntrySize bytes, so a mixed-version fleet degrades to cache misses
// instead of mis-ranking candidates.
package cachewire

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Version is the current wire-format version of an encoded Entry. It is
// the first byte of every encoded entry; DecodeEntry rejects any other
// value so version-skewed peers fall back to a cache miss rather than
// reinterpreting bytes.
const Version = 1

// EntrySize is the exact encoded size of one Entry:
// version(1) + flags(1) + perReplica(8) + maxGB(8).
const EntrySize = 18

// Entry is the wire form of one cached evaluation — the compact,
// pointer-free scalars of core's evaluation record: the D-invariant
// per-replica throughput, the peak per-device footprint and the feasibility
// verdict.
type Entry struct {
	PerReplica float64 // sequences/s of one replica
	MaxGB      float64 // peak per-device footprint
	Fits       bool    // fits every device with the standard headroom
	// Pruned is the retired memory-first marker. core neither writes nor
	// reads it (a candidate's Pruned flag belongs to its sweep, not to the
	// entry that served it); the flag bit still decodes, so snapshots and
	// peers that set it stay readable.
	Pruned bool
	// Failed marks a deterministic infeasible verdict under the sweep's
	// fault plan (a device died mid-schedule). Only the verdict bit
	// crosses the wire; the failure diagnostics (device, time, recovery
	// estimate) stay with the measuring process — they inform operators,
	// not the ranking, which needs only "this cell cannot complete".
	Failed bool
	// SplitBW marks an evaluation measured under split-backward semantics
	// (a zero-bubble scheme whose backwards run as separate input-grad and
	// weight-grad actions, e.g. zbh1). The bit keeps split and fused
	// verdicts distinguishable on the shared tier even if a future key
	// scheme collides their hashes, and lets operators audit which cache
	// rows came from the split executor.
	SplitBW bool
}

// Flag bits of the encoded entry's second byte. Decoders built before a
// bit existed reject entries carrying it (the strict mask below), so
// adding a flag is forward-safe: old builds degrade to misses instead of
// misreading new verdicts.
const (
	flagFits    = 1 << 0
	flagPruned  = 1 << 1
	flagFailed  = 1 << 2
	flagSplitBW = 1 << 3
)

// AppendEntry appends the encoded form of e to dst and returns the
// extended slice. The encoding is fixed-width little-endian; float
// payloads are IEEE-754 bit patterns, so every value (including
// infinities and NaN payloads) round-trips bit-for-bit.
func AppendEntry(dst []byte, e Entry) []byte {
	var flags byte
	if e.Fits {
		flags |= flagFits
	}
	if e.Pruned {
		flags |= flagPruned
	}
	if e.Failed {
		flags |= flagFailed
	}
	if e.SplitBW {
		flags |= flagSplitBW
	}
	dst = append(dst, Version, flags)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.PerReplica))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.MaxGB))
	return dst
}

// DecodeEntry decodes one entry from b. It fails on truncated or
// oversized payloads (b must be exactly EntrySize bytes) and on version
// skew; both failure modes are how a cache tier shared by processes
// running different builds degrades safely to misses.
func DecodeEntry(b []byte) (Entry, error) {
	if len(b) != EntrySize {
		return Entry{}, fmt.Errorf("cachewire: entry is %d bytes, want %d", len(b), EntrySize)
	}
	if b[0] != Version {
		return Entry{}, fmt.Errorf("cachewire: entry version %d, this build speaks %d", b[0], Version)
	}
	if b[1]&^(flagFits|flagPruned|flagFailed|flagSplitBW) != 0 {
		return Entry{}, fmt.Errorf("cachewire: unknown flag bits %#x", b[1])
	}
	return Entry{
		PerReplica: math.Float64frombits(binary.LittleEndian.Uint64(b[2:10])),
		MaxGB:      math.Float64frombits(binary.LittleEndian.Uint64(b[10:18])),
		Fits:       b[1]&flagFits != 0,
		Pruned:     b[1]&flagPruned != 0,
		Failed:     b[1]&flagFailed != 0,
		SplitBW:    b[1]&flagSplitBW != 0,
	}, nil
}

// Cache is the cross-process batch seam behind core.Tuner. MultiGet
// resolves each 64-bit evaluation-key hash keys[i] into out[i], with
// ok[i] reporting a hit; MultiPut publishes every (keys[i], entries[i])
// pair. The caller sizes every vector to len(keys). Implementations must
// be safe for concurrent use and must not half-apply a batch they reject
// as malformed. On a MultiGet error the hits already reported stay valid
// and the rest read as misses. The Tuner treats MultiGet errors as misses
// and MultiPut errors as dropped publishes, so a flaky tier degrades the
// hit rate, never correctness.
type Cache interface {
	MultiGet(keys []uint64, out []Entry, ok []bool) error
	MultiPut(keys []uint64, entries []Entry) error
}
