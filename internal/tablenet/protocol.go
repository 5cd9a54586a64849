// Package tablenet serves precomputed search tables over the network:
// the distribution seam of the paper's precompute-once/query-many
// workflow. A shard server (Serve) exports any tables.Backend —
// typically a memory-mapped tablesio v2 store — through a compact
// length-prefixed binary protocol; Client speaks it back as a
// tables.Backend, and Router composes N such backends into one by
// partitioning the canonical-representative key space on the same high
// Wang-hash bits that pick a store's hash shard.
//
// The protocol is deliberately small. Each frame is
//
//	uint32 length (op + payload bytes, little-endian) |
//	uint32 checksum (FNV-1a over op + payload) | byte op | payload
//
// and a connection is strictly request/response (pipelining comes from a
// client-side connection pool, not the wire). On accept the server
// speaks first with a Hello frame carrying the protocol version, the
// table-format generation, the alphabet fingerprint, and the per-level
// iteration bounds — so an incompatible client fails the handshake
// instead of misinterpreting lookups. Three requests exist: batched
// canonical-key lookup, level-range key fetch, and server stats (plus
// ping). Every length field is bounds-checked against hard caps before
// any allocation, mirroring tablesio's forged-header guards: a malicious
// peer can fail a connection, never balloon the process.
//
// The checksum (protocol v2) is what makes transport corruption a
// detected failure instead of a wrong answer: a flipped byte anywhere in
// a frame — a lookup value, a level key, a length field that still lands
// in bounds — fails verification (ErrChecksum) and tears the connection
// down, and because every request is an idempotent read of an immutable
// table, the client retries it safely on a fresh connection.
package tablenet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"repro/internal/bfs"
	"repro/internal/tables"
)

// ErrProtocol reports a malformed or out-of-contract frame; the
// connection it arrived on is unusable afterwards.
var ErrProtocol = errors.New("tablenet: protocol error")

// ErrRemote reports an error frame sent by the peer (the remote's own
// description of why it rejected a request).
var ErrRemote = errors.New("tablenet: remote error")

// ErrChecksum reports a frame whose payload did not verify against its
// header checksum: the transport corrupted bytes in flight (or a peer
// speaks a different frame layout). The connection is unusable, but the
// failed request is an idempotent read and safe to retry elsewhere —
// corruption is classified as a retryable transport fault, never
// surfaced as data.
var ErrChecksum = errors.New("tablenet: frame checksum mismatch")

// ErrUnavailable reports that a request exhausted its retry budget
// against transport failures (dial errors, dropped connections,
// per-attempt timeouts): the shard is unreachable or too unhealthy to
// answer. The router treats it — like any retryable failure — as the
// trigger for failing over to a sibling replica.
var ErrUnavailable = errors.New("tablenet: shard unavailable")

// ErrOwnership reports a shard whose hello-advertised key range does not
// cover the range it was wired to serve — a split store mounted at the
// wrong fleet position, or a shard whose range changed across a
// reconnect. Deliberately NOT a retryable transport fault: retrying the
// same miswired shard cannot help, and serving through it would return
// not-found for keys the fleet actually holds. The router refuses the
// wiring instead.
var ErrOwnership = errors.New("tablenet: shard does not own its wired range")

// ErrDraining reports a request refused because the shard is draining:
// it finishes in-flight work but accepts no new connections or requests.
// Clients treat it like unavailability (fail over to a sibling), except
// it is the shard's own orderly announcement rather than a fault.
var ErrDraining = errors.New("tablenet: shard is draining")

const (
	// protoVersion gates the wire format itself; bumped on incompatible
	// frame-layout changes. v2 added the per-frame FNV-1a checksum; v3
	// added the owned key range and draining flag to the hello, the
	// sparse level-read op, and residency fields in stats.
	protoVersion = 3

	// maxFrameLen caps op+payload of any frame. The largest legitimate
	// frame is a full lookup batch (4 + 8·maxLookupKeys bytes); 2 MiB
	// leaves headroom without letting a forged length commit real
	// memory.
	maxFrameLen = 2 << 20

	// maxLookupKeys caps keys per lookup request; larger batches are
	// split client-side.
	maxLookupKeys = 1 << 17

	// maxLevelKeys caps representatives per level-range request.
	maxLevelKeys = 1 << 16

	// maxErrLen caps the error-message payload a peer can make us hold.
	maxErrLen = 1 << 10
)

// Frame opcodes. Responses are request+1 so a mismatch is caught
// structurally.
const (
	opHello        byte = 0x01
	opLookup       byte = 0x10
	opLookupR      byte = 0x11
	opLevel        byte = 0x20
	opLevelR       byte = 0x21
	opLevelSparse  byte = 0x22
	opLevelSparseR byte = 0x23
	opStats        byte = 0x30
	opStatsR       byte = 0x31
	opPing         byte = 0x40
	opPingR        byte = 0x41
	opErr          byte = 0x7F
)

// frameHeaderLen is the byte length of the v2 frame header: uint32
// body length plus uint32 FNV-1a checksum of the body (op + payload).
const frameHeaderLen = 8

// frameSum is the FNV-1a checksum carried in every frame header,
// computed over the frame body (op + payload). Not cryptographic — it
// detects transport corruption (flipped bytes, torn frames spliced
// across reconnects), not adversaries; hostile peers are already bounded
// by the length caps and the handshake.
func frameSum(body []byte) uint32 {
	h := uint32(2166136261)
	for _, b := range body {
		h ^= uint32(b)
		h *= 16777619
	}
	return h
}

// writeFrame emits one frame. payload may be nil. The hot paths on both
// sides use pooled whole-frame buffers instead (appendFrame client- and
// server-side); this remains for handshakes, error frames, and tests.
func writeFrame(w io.Writer, op byte, payload []byte) error {
	if len(payload)+1 > maxFrameLen {
		return fmt.Errorf("%w: frame of %d bytes exceeds cap", ErrProtocol, len(payload)+1)
	}
	var hdr [frameHeaderLen + 1]byte
	binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)+1))
	hdr[8] = op
	sum := uint32(2166136261)
	sum = (sum ^ uint32(op)) * 16777619
	for _, b := range payload {
		sum ^= uint32(b)
		sum *= 16777619
	}
	binary.LittleEndian.PutUint32(hdr[4:8], sum)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	if len(payload) > 0 {
		if _, err := w.Write(payload); err != nil {
			return err
		}
	}
	return nil
}

// appendFrame appends one complete frame — length+checksum header,
// opcode, payload — to dst and returns it: the allocation-free path for
// pooled frame buffers, emitted with a single Write.
func appendFrame(dst []byte, op byte, payload []byte) ([]byte, error) {
	if len(payload)+1 > maxFrameLen {
		return dst, fmt.Errorf("%w: frame of %d bytes exceeds cap", ErrProtocol, len(payload)+1)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)+1))
	dst = append(dst, 0, 0, 0, 0) // checksum, patched below
	start := len(dst)
	dst = append(dst, op)
	dst = append(dst, payload...)
	binary.LittleEndian.PutUint32(dst[start-4:], frameSum(dst[start:]))
	return dst, nil
}

// readFrame reads one frame, reusing buf both to parse the header and
// to hold the payload when it is large enough (the header bytes are
// consumed before the body read overwrites them), so a warm caller
// allocates nothing. The declared length is validated against
// maxFrameLen BEFORE any allocation, so a forged length cannot OOM the
// reader, and the body is verified against the header checksum so a
// corrupted byte anywhere in the frame fails loudly (ErrChecksum)
// instead of decoding into a wrong answer.
func readFrame(r io.Reader, buf []byte) (op byte, payload []byte, err error) {
	hdr := buf
	if cap(hdr) < frameHeaderLen {
		hdr = make([]byte, frameHeaderLen)
	}
	hdr = hdr[:frameHeaderLen]
	if _, err := io.ReadFull(r, hdr); err != nil {
		return 0, nil, err
	}
	n := binary.LittleEndian.Uint32(hdr)
	sum := binary.LittleEndian.Uint32(hdr[4:])
	if n == 0 || n > maxFrameLen {
		// An implausible length is indistinguishable from a corrupted
		// length field — the checksum can only vouch for the body it
		// delimits. Typed ErrChecksum (transport-class, retryable): a
		// peer that really speaks garbage just exhausts the retry budget
		// and surfaces as unavailable.
		return 0, nil, fmt.Errorf("%w: frame length %d outside (0, %d]", ErrChecksum, n, maxFrameLen)
	}
	body := buf
	if uint32(cap(body)) < n {
		body = make([]byte, n)
	}
	body = body[:n]
	if _, err := io.ReadFull(r, body); err != nil {
		// A frame cut short is a peer dying mid-write or a torn
		// transport, not a contract violation: deliberately NOT
		// ErrProtocol, so the retry classifier treats it like the
		// connection loss it is.
		return 0, nil, fmt.Errorf("tablenet: truncated frame: %w", err)
	}
	if got := frameSum(body); got != sum {
		return 0, nil, fmt.Errorf("%w: frame of %d bytes sums to %#x, header claims %#x", ErrChecksum, n, got, sum)
	}
	return body[0], body[1:], nil
}

// Hello flag bits (the uint32 at payload offset 1). Bits 8–15 carry
// the shard's synthesis horizon (tables.Meta.Horizon) — 0 there means
// "unadvertised" (a pre-horizon peer), which Meta.NormHorizon defaults
// to K, so mixed-version fleets interoperate without a protocol bump.
const (
	helloFlagReduced  uint32 = 1 << 0
	helloFlagDraining uint32 = 1 << 1

	helloHorizonShift        = 8
	helloHorizonMask  uint32 = 0xff
)

// helloFixedLen is the byte length of the v3 hello before the
// variable-length level counts: version byte, flags, k, entries,
// fingerprint, and the owned key range.
const helloFixedLen = 1 + 4 + 4 + 8 + 24 + 8 + 8

// hello is the decoded handshake: the shard's table metadata plus its
// serving state. RangeLo/RangeHi is the half-open [lo, hi) interval of
// high-32 Wang-hash space the shard owns — [0, tables.RangeSpace) for a
// full store — and is what the router's ownership check verifies against
// the position the shard was wired into. Draining announces the shard is
// finishing in-flight work and should receive no new sub-batches.
type hello struct {
	Meta     tables.Meta
	RangeLo  uint64
	RangeHi  uint64
	Draining bool
}

// encodeHello lays out the handshake payload:
//
//	version byte | flags uint32 (bit0 reduced, bit1 draining,
//	bits 8–15 synthesis horizon) | k uint32 | entries uint64 |
//	fingerprint (u32 u32 u64 u64) | rangeLo uint64 | rangeHi uint64 |
//	levelCounts (k+1)×uint64
func encodeHello(h hello) []byte {
	m := h.Meta
	buf := make([]byte, helloFixedLen+(m.K+1)*8)
	buf[0] = protoVersion
	le := binary.LittleEndian
	var flags uint32
	if m.Reduced {
		flags |= helloFlagReduced
	}
	if h.Draining {
		flags |= helloFlagDraining
	}
	flags |= (uint32(m.NormHorizon()) & helloHorizonMask) << helloHorizonShift
	le.PutUint32(buf[1:], flags)
	le.PutUint32(buf[5:], uint32(m.K))
	le.PutUint64(buf[9:], uint64(m.Entries))
	le.PutUint32(buf[17:], m.Fingerprint.Elements)
	le.PutUint32(buf[21:], m.Fingerprint.MaxCost)
	le.PutUint64(buf[25:], m.Fingerprint.XorPerms)
	le.PutUint64(buf[33:], m.Fingerprint.SumCosts)
	le.PutUint64(buf[41:], h.RangeLo)
	le.PutUint64(buf[49:], h.RangeHi)
	for c, n := range m.LevelCounts {
		le.PutUint64(buf[helloFixedLen+8*c:], uint64(n))
	}
	return buf
}

// parseHello decodes and validates a handshake payload from an untrusted
// peer. Every count is bounds-checked (k against the packed-cost cap,
// entries against the level-count sum, the owned range against the hash
// space) so a forged hello cannot induce huge allocations or an
// inconsistent Meta.
func parseHello(payload []byte) (hello, error) {
	var h hello
	if len(payload) < helloFixedLen {
		return h, fmt.Errorf("%w: hello of %d bytes", ErrProtocol, len(payload))
	}
	if v := payload[0]; v != protoVersion {
		return h, fmt.Errorf("%w: protocol version %d, this build speaks %d", ErrProtocol, v, protoVersion)
	}
	le := binary.LittleEndian
	flags := le.Uint32(payload[1:])
	k := le.Uint32(payload[5:])
	if k > uint32(bfs.MaxPackedCost) {
		return h, fmt.Errorf("%w: implausible horizon %d", ErrProtocol, k)
	}
	entries := le.Uint64(payload[9:])
	if len(payload) != helloFixedLen+(int(k)+1)*8 {
		return h, fmt.Errorf("%w: hello length %d does not match horizon %d", ErrProtocol, len(payload), k)
	}
	h.RangeLo = le.Uint64(payload[41:])
	h.RangeHi = le.Uint64(payload[49:])
	if h.RangeLo >= h.RangeHi || h.RangeHi > tables.RangeSpace {
		return h, fmt.Errorf("%w: implausible owned range [%#x, %#x)", ErrProtocol, h.RangeLo, h.RangeHi)
	}
	h.Draining = flags&helloFlagDraining != 0
	h.Meta = tables.Meta{
		K:       int(k),
		Reduced: flags&helloFlagReduced != 0,
		Entries: int(entries),
		Fingerprint: tables.Fingerprint{
			Elements: le.Uint32(payload[17:]),
			MaxCost:  le.Uint32(payload[21:]),
			XorPerms: le.Uint64(payload[25:]),
			SumCosts: le.Uint64(payload[33:]),
		},
		LevelCounts: make([]int, k+1),
		Horizon:     int(flags >> helloHorizonShift & helloHorizonMask),
	}
	var sum uint64
	for c := range h.Meta.LevelCounts {
		n := le.Uint64(payload[helloFixedLen+8*c:])
		sum += n
		if n > entries || sum > entries {
			return h, fmt.Errorf("%w: level %d count %d exceeds declared entries %d", ErrProtocol, c, n, entries)
		}
		h.Meta.LevelCounts[c] = int(n)
	}
	if err := h.Meta.Validate(); err != nil {
		return h, fmt.Errorf("%w: %w", ErrProtocol, err)
	}
	return h, nil
}

// Stats are the serving counters a shard server reports over opStats.
type Stats struct {
	// Lookups counts LookupBatch requests; Keys the keys they probed and
	// Hits the subset found. LevelReqs counts LevelKeys requests (dense
	// and sparse).
	Lookups   uint64 `json:"lookups"`
	Keys      uint64 `json:"keys"`
	Hits      uint64 `json:"hits"`
	LevelReqs uint64 `json:"level_reqs"`
	// ResidentBytes/MappedBytes report the shard store's page-cache
	// residency (v3): how much of the mapped table is actually in RAM.
	// Zero when the backend is not memory-mapped or residency is
	// unsupported on the host.
	ResidentBytes uint64 `json:"resident_bytes"`
	MappedBytes   uint64 `json:"mapped_bytes"`
}

func encodeStats(st Stats) []byte {
	buf := make([]byte, 48)
	le := binary.LittleEndian
	le.PutUint64(buf[0:], st.Lookups)
	le.PutUint64(buf[8:], st.Keys)
	le.PutUint64(buf[16:], st.Hits)
	le.PutUint64(buf[24:], st.LevelReqs)
	le.PutUint64(buf[32:], st.ResidentBytes)
	le.PutUint64(buf[40:], st.MappedBytes)
	return buf
}

func parseStats(payload []byte) (Stats, error) {
	if len(payload) != 48 {
		return Stats{}, fmt.Errorf("%w: stats payload of %d bytes", ErrProtocol, len(payload))
	}
	le := binary.LittleEndian
	return Stats{
		Lookups:       le.Uint64(payload[0:]),
		Keys:          le.Uint64(payload[8:]),
		Hits:          le.Uint64(payload[16:]),
		LevelReqs:     le.Uint64(payload[24:]),
		ResidentBytes: le.Uint64(payload[32:]),
		MappedBytes:   le.Uint64(payload[40:]),
	}, nil
}

// sparseReqLen is the fixed payload of an opLevelSparse request:
//
//	cost uint32 | lo uint64 | n uint32 | filterLo uint64 | filterHi uint64
//
// Global level positions [lo, lo+n) are scanned and the keys whose high
// hash falls in [filterLo, filterHi) are returned as (position-lo, key)
// pairs. The filter is how a full store wired into a split topology
// serves exactly one range's slice without duplicating siblings' keys.
const sparseReqLen = 4 + 8 + 4 + 8 + 8

func encodeSparseReq(buf []byte, cost, lo, n int, filterLo, filterHi uint64) []byte {
	le := binary.LittleEndian
	buf = le.AppendUint32(buf, uint32(cost))
	buf = le.AppendUint64(buf, uint64(lo))
	buf = le.AppendUint32(buf, uint32(n))
	buf = le.AppendUint64(buf, filterLo)
	buf = le.AppendUint64(buf, filterHi)
	return buf
}

func parseSparseReq(payload []byte) (cost, lo, n int, filterLo, filterHi uint64, err error) {
	if len(payload) != sparseReqLen {
		return 0, 0, 0, 0, 0, fmt.Errorf("%w: sparse level request of %d bytes", ErrProtocol, len(payload))
	}
	le := binary.LittleEndian
	cost = int(le.Uint32(payload[0:]))
	lo64 := le.Uint64(payload[4:])
	n = int(le.Uint32(payload[12:]))
	filterLo = le.Uint64(payload[16:])
	filterHi = le.Uint64(payload[24:])
	if cost > bfs.MaxPackedCost || lo64 > uint64(int(^uint(0)>>1)) || n > maxLevelKeys {
		return 0, 0, 0, 0, 0, fmt.Errorf("%w: sparse level request cost=%d lo=%d n=%d out of contract", ErrProtocol, cost, lo64, n)
	}
	if filterLo >= filterHi || filterHi > tables.RangeSpace {
		return 0, 0, 0, 0, 0, fmt.Errorf("%w: sparse level filter [%#x, %#x)", ErrProtocol, filterLo, filterHi)
	}
	return cost, int(lo64), n, filterLo, filterHi, nil
}

// remoteErr converts an opErr payload into an error, capping how much of
// a hostile message is retained.
func remoteErr(payload []byte) error {
	if len(payload) > maxErrLen {
		payload = payload[:maxErrLen]
	}
	return fmt.Errorf("%w: %s", ErrRemote, payload)
}
