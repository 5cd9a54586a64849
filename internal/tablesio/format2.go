// Format v2: the zero-copy frozen-table layout.
//
// A store persists the probe-table layout itself: the flat
// little-endian keys/vals slot arrays of a hashtab.FrozenTable,
// page-aligned, plus the per-level slot index that lists each cost
// level. A loader therefore validates a small header and memory-maps
// the rest instead of parsing a stream of entries and re-inserting each
// into a fresh hash table — for the paper's k = 9 tables that rehash
// is minutes of CPU before the first query (§4.1 reports an
// 1111-second load). Cold start becomes O(pages touched), the mapped
// table is shared between processes through the page cache, and
// nothing is stored twice.
//
//	page 0   magic "RVT2" | flags | k | alphabet fingerprint |
//	         geometry (shards, slots/shard, entries) | section offsets |
//	         section fingerprints | per-level counts |
//	         [split extension] | header fingerprint
//	aligned  keys  — totalSlots × uint64 (0 = empty slot)
//	aligned  vals  — totalSlots × uint16 (cost-packed bfs values)
//	aligned  index — entries × uint32 global slot numbers, grouped by
//	         cost level in level-storage order
//	8-align  gpos  — split stores only: entries × uint32 global
//	         level positions, same grouping as index
//
// A *split* store (flagSplit) holds one of splitN equal high-Wang-hash
// ranges of a table set: the slot arrays cover only the owned range's
// shards (disk and resident set ≈ 1/N), the header's geometry and level
// counts describe the LOCAL contents (so every structural check above
// applies unchanged), and the split extension records which range this
// is plus the GLOBAL entry/level counts. The gpos section maps each
// local entry to its position in the global level order, which is what
// lets a fleet of split shards reproduce full-table level iteration —
// and therefore byte-identical synthesis — through sparse merges.
//
// Integrity is two-tier, matching the two load paths. The header always
// carries and verifies an xxhash-style fingerprint of itself; the three
// sections carry fingerprints that the streaming loader (untrusted
// input: Load, fuzzing) verifies while it copies, followed by a full
// structural re-validation. The mmap fast path verifies the header and
// the file size only — touching every page to hash it would defeat the
// O(pages-touched) cold start — and treats section integrity like a
// database treats its data files: trusted storage by default,
// LoadOptions.VerifyContent (or re-loading through Load) when it is not.
package tablesio

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"

	"repro/internal/bfs"
	"repro/internal/hashtab"
	"repro/internal/tables"
)

const (
	// pageAlign is the section alignment: a multiple of every page size
	// in common use, so mapped sections are naturally aligned for their
	// element types.
	pageAlign = 4096
	// headerFixedLen is the byte length of the fixed header fields, up to
	// but excluding the per-level counts.
	headerFixedLen = 120
	// maxShardCount mirrors hashtab's sharding bound.
	maxShardCount = 1 << 16
	// minShardSlots mirrors hashtab's per-shard minimum.
	minShardSlots = 16
	// maxTotalSlots keeps global slot numbers addressable by the uint32
	// level index.
	maxTotalSlots = uint64(1) << 32
)

// xxhash-style avalanche and round primes (XXH64's constants); the
// section fingerprints run the single-lane round over the logical
// little-endian 64-bit word stream of each section, which the mmap
// verifier can feed straight from the mapped arrays.
const (
	xxPrime1 = 0x9E3779B185EBCA87
	xxPrime2 = 0xC2B2AE3D27D4EB4F
	xxPrime3 = 0x165667B19E3779F9
	xxPrime4 = 0x85EBCA77C2B2AE63
	xxPrime5 = 0x27D4EB2F165667C5
)

// wordHash accumulates uint64 words, xxhash-style.
type wordHash struct {
	acc uint64
	n   uint64
}

func newWordHash() wordHash { return wordHash{acc: xxPrime5} }

func (h *wordHash) word(x uint64) {
	x *= xxPrime2
	x = bits.RotateLeft64(x, 31)
	x *= xxPrime1
	h.acc ^= x
	h.acc = bits.RotateLeft64(h.acc, 27)*xxPrime1 + xxPrime4
	h.n++
}

func (h *wordHash) sum() uint64 {
	x := h.acc + h.n
	x ^= x >> 33
	x *= xxPrime2
	x ^= x >> 29
	x *= xxPrime3
	x ^= x >> 32
	return x
}

// hashBytesV2 fingerprints a byte slice whose length is a multiple of 8
// (the header, which is laid out to satisfy that).
func hashBytesV2(b []byte) uint64 {
	h := newWordHash()
	for i := 0; i+8 <= len(b); i += 8 {
		h.word(binary.LittleEndian.Uint64(b[i:]))
	}
	return h.sum()
}

func hashKeyWords(keys []uint64) uint64 {
	h := newWordHash()
	for _, k := range keys {
		h.word(k)
	}
	return h.sum()
}

func hashValWords(vals []uint16) uint64 {
	h := newWordHash()
	var w uint64
	for i, v := range vals {
		w |= uint64(v) << ((i % 4) * 16)
		if i%4 == 3 {
			h.word(w)
			w = 0
		}
	}
	if len(vals)%4 != 0 {
		h.word(w)
	}
	return h.sum()
}

func hashIdxWords(idx []uint32) uint64 {
	h := newWordHash()
	var w uint64
	for i, v := range idx {
		w |= uint64(v) << ((i % 2) * 32)
		if i%2 == 1 {
			h.word(w)
			w = 0
		}
	}
	if len(idx)%2 != 0 {
		h.word(w)
	}
	return h.sum()
}

func alignUp(n, align uint64) uint64 { return (n + align - 1) / align * align }

// layoutV2 is the deterministic section placement implied by a table's
// geometry; readers recompute it and reject headers that disagree, so a
// forged offset can never point a section outside its own file region.
type layoutV2 struct {
	totalSlots uint64
	keysOff    uint64
	valsOff    uint64
	idxOff     uint64
	// gposOff is the global-position section of a split store (0 for a
	// full store); it follows the index section at 8-byte alignment, so
	// both uint32 sections stay word-aligned in a page-aligned mapping.
	gposOff  uint64
	fileSize uint64
}

func computeLayoutV2(headerLen int, shardCount uint32, slotsPerShard, entryCount uint64, split bool) layoutV2 {
	var l layoutV2
	l.totalSlots = uint64(shardCount) * slotsPerShard
	l.keysOff = alignUp(uint64(headerLen), pageAlign)
	l.valsOff = alignUp(l.keysOff+l.totalSlots*8, pageAlign)
	l.idxOff = alignUp(l.valsOff+l.totalSlots*2, pageAlign)
	idxSize := alignUp(entryCount*4, 8)
	l.fileSize = l.idxOff + idxSize
	if split {
		l.gposOff = l.fileSize
		l.fileSize += idxSize
	}
	return l
}

// headerV2 is the parsed fixed-size header.
type headerV2 struct {
	flags   uint32
	maxCost uint32
	// horizon is the max synthesizable cost of a full-depth MITM engine
	// over this store (tables.Meta.Horizon): 2K − (maxGateCost−1),
	// floored at K. Carried in the formerly-reserved u32 at offset 40;
	// pre-horizon stores read back 0, which loaders treat as
	// "unadvertised" (tables.Meta.NormHorizon defaults it to K).
	horizon       uint32
	fp            fingerprint
	shardCount    uint32
	slotsPerShard uint64
	entryCount    uint64
	keysOff       uint64
	valsOff       uint64
	idxOff        uint64
	fileSize      uint64
	keysHash      uint64
	valsHash      uint64
	idxHash       uint64
	levelCounts   []uint64
	// Split extension (flagSplit): which of splitN ranges this store
	// holds, the global table-set shape, and the gpos section's offset
	// and fingerprint. levelCounts above stay LOCAL.
	splitN            uint32
	splitI            uint32
	globalEntries     uint64
	gposOff           uint64
	gposHash          uint64
	globalLevelCounts []uint64
}

// splitExtLen is the fixed part of the split header extension:
// splitN u32 | splitI u32 | globalEntries u64 | gposOff u64 | gposHash
// u64, followed by (maxCost+1) global level counts.
const splitExtLen = 32

func (h *headerV2) split() bool { return h.flags&flagSplit != 0 }

func headerLenFor(flags, maxCost uint32) int {
	n := headerFixedLen + (int(maxCost)+1)*8 + 8
	if flags&flagSplit != 0 {
		n += splitExtLen + (int(maxCost)+1)*8
	}
	return n
}

func (h *headerV2) headerLen() int { return headerLenFor(h.flags, h.maxCost) }

// encodeHeaderV2 lays the header out, computes its trailing fingerprint,
// and returns the encoded bytes.
func encodeHeaderV2(h *headerV2) []byte {
	buf := make([]byte, h.headerLen())
	copy(buf[0:3], magicPrefix[:])
	buf[3] = version2
	le := binary.LittleEndian
	le.PutUint32(buf[4:], h.flags)
	le.PutUint32(buf[8:], h.maxCost)
	le.PutUint32(buf[12:], h.fp.Elements)
	le.PutUint32(buf[16:], h.fp.MaxCost)
	le.PutUint64(buf[20:], h.fp.XorPerms)
	le.PutUint64(buf[28:], h.fp.SumCosts)
	le.PutUint32(buf[36:], h.shardCount)
	le.PutUint32(buf[40:], h.horizon) // synthesis horizon (0: unadvertised)
	le.PutUint64(buf[44:], h.slotsPerShard)
	le.PutUint64(buf[52:], h.entryCount)
	le.PutUint64(buf[60:], h.keysOff)
	le.PutUint64(buf[68:], h.valsOff)
	le.PutUint64(buf[76:], h.idxOff)
	le.PutUint64(buf[84:], h.fileSize)
	le.PutUint64(buf[92:], h.keysHash)
	le.PutUint64(buf[100:], h.valsHash)
	le.PutUint64(buf[108:], h.idxHash)
	// buf[116:120] reserved padding keeping the hashed prefix a multiple
	// of eight bytes.
	off := headerFixedLen
	for _, n := range h.levelCounts {
		le.PutUint64(buf[off:], n)
		off += 8
	}
	if h.split() {
		le.PutUint32(buf[off:], h.splitN)
		le.PutUint32(buf[off+4:], h.splitI)
		le.PutUint64(buf[off+8:], h.globalEntries)
		le.PutUint64(buf[off+16:], h.gposOff)
		le.PutUint64(buf[off+24:], h.gposHash)
		off += splitExtLen
		for _, n := range h.globalLevelCounts {
			le.PutUint64(buf[off:], n)
			off += 8
		}
	}
	le.PutUint64(buf[off:], hashBytesV2(buf[:off]))
	return buf
}

// parseHeaderV2 decodes and verifies a header from b, which must contain
// at least the full header (readers hand it the first page). It returns
// the header and its encoded length.
func parseHeaderV2(b []byte) (*headerV2, int, error) {
	if len(b) < headerFixedLen+8 {
		return nil, 0, fmt.Errorf("%w: short v2 header (%d bytes)", ErrCorrupt, len(b))
	}
	if [3]byte{b[0], b[1], b[2]} != magicPrefix || b[3] != version2 {
		return nil, 0, fmt.Errorf("%w: bad v2 magic %q", ErrBadMagic, b[:4])
	}
	le := binary.LittleEndian
	h := &headerV2{
		flags: le.Uint32(b[4:]),
		fp: fingerprint{
			Elements: le.Uint32(b[12:]),
			MaxCost:  le.Uint32(b[16:]),
			XorPerms: le.Uint64(b[20:]),
			SumCosts: le.Uint64(b[28:]),
		},
		shardCount:    le.Uint32(b[36:]),
		slotsPerShard: le.Uint64(b[44:]),
		entryCount:    le.Uint64(b[52:]),
		keysOff:       le.Uint64(b[60:]),
		valsOff:       le.Uint64(b[68:]),
		idxOff:        le.Uint64(b[76:]),
		fileSize:      le.Uint64(b[84:]),
		keysHash:      le.Uint64(b[92:]),
		valsHash:      le.Uint64(b[100:]),
		idxHash:       le.Uint64(b[108:]),
	}
	h.maxCost = le.Uint32(b[8:])
	if h.maxCost > uint32(bfs.MaxPackedCost) {
		return nil, 0, fmt.Errorf("%w: implausible horizon %d", ErrCorrupt, h.maxCost)
	}
	h.horizon = le.Uint32(b[40:])
	if h.horizon != 0 && (h.horizon < h.maxCost || h.horizon > 2*h.maxCost) {
		return nil, 0, fmt.Errorf("%w: synthesis horizon %d outside [%d, %d]", ErrCorrupt, h.horizon, h.maxCost, 2*h.maxCost)
	}
	n := h.headerLen()
	if len(b) < n {
		return nil, 0, fmt.Errorf("%w: truncated v2 header", ErrCorrupt)
	}
	want := le.Uint64(b[n-8:])
	if got := hashBytesV2(b[:n-8]); got != want {
		return nil, 0, fmt.Errorf("%w: header fingerprint mismatch (file %#x, computed %#x)", ErrCorrupt, want, got)
	}
	h.levelCounts = make([]uint64, h.maxCost+1)
	for c := range h.levelCounts {
		h.levelCounts[c] = le.Uint64(b[headerFixedLen+8*c:])
	}
	if h.split() {
		off := headerFixedLen + 8*len(h.levelCounts)
		h.splitN = le.Uint32(b[off:])
		h.splitI = le.Uint32(b[off+4:])
		h.globalEntries = le.Uint64(b[off+8:])
		h.gposOff = le.Uint64(b[off+16:])
		h.gposHash = le.Uint64(b[off+24:])
		off += splitExtLen
		h.globalLevelCounts = make([]uint64, h.maxCost+1)
		for c := range h.globalLevelCounts {
			h.globalLevelCounts[c] = le.Uint64(b[off+8*c:])
		}
	}
	return h, n, nil
}

// validateGeometryV2 checks the header's table geometry against the
// hashtab invariants and resource caps, and confirms the recorded
// section offsets equal the deterministic layout — so every later read
// is provably inside the file the header describes. Forged shard counts
// or slot sizes are rejected here, before any section-sized allocation
// or mapping arithmetic happens.
func validateGeometryV2(h *headerV2, maxEntries int64) (layoutV2, error) {
	sc := uint64(h.shardCount)
	if sc == 0 || sc&(sc-1) != 0 || sc > maxShardCount {
		return layoutV2{}, fmt.Errorf("%w: shard count %d is not a power of two in [1, %d]", ErrCorrupt, sc, maxShardCount)
	}
	sps := h.slotsPerShard
	if sps < minShardSlots || sps&(sps-1) != 0 {
		return layoutV2{}, fmt.Errorf("%w: %d slots per shard is not a power of two ≥ %d", ErrCorrupt, sps, minShardSlots)
	}
	total := sc * sps
	if sps > maxTotalSlots || total > maxTotalSlots {
		return layoutV2{}, fmt.Errorf("%w: %d slots exceed the uint32 slot-index space", ErrCorrupt, total)
	}
	if h.entryCount == 0 {
		// Every real table holds at least the identity; an empty one is
		// structural damage (and would leave a zero-length index section
		// whose offset equals the file size).
		return layoutV2{}, fmt.Errorf("%w: table declares no entries", ErrCorrupt)
	}
	if h.entryCount > uint64(maxEntries) {
		return layoutV2{}, fmt.Errorf("%w: %d entries exceed cap %d", ErrCorrupt, h.entryCount, maxEntries)
	}
	if h.entryCount > total {
		return layoutV2{}, fmt.Errorf("%w: %d entries in %d slots", ErrCorrupt, h.entryCount, total)
	}
	// A writer never produces a grossly oversized table (shards stay near
	// the build load factor); reject absurdly sparse geometry so a forged
	// header cannot demand huge allocations for a handful of entries.
	if total > 64*sc && total > 8*h.entryCount {
		return layoutV2{}, fmt.Errorf("%w: %d slots for %d entries is implausibly sparse", ErrCorrupt, total, h.entryCount)
	}
	var sum uint64
	for c, n := range h.levelCounts {
		if n > h.entryCount {
			return layoutV2{}, fmt.Errorf("%w: level %d declares %d entries, total %d", ErrCorrupt, c, n, h.entryCount)
		}
		sum += n
	}
	if sum != h.entryCount {
		return layoutV2{}, fmt.Errorf("%w: level counts sum to %d, header declares %d", ErrCorrupt, sum, h.entryCount)
	}
	if h.split() {
		sn := uint64(h.splitN)
		if sn == 0 || sn&(sn-1) != 0 || sn > maxShardCount || uint64(h.splitI) >= sn {
			return layoutV2{}, fmt.Errorf("%w: split %d/%d is not a valid power-of-two partition", ErrCorrupt, h.splitI, sn)
		}
		if sc*sn > maxShardCount {
			return layoutV2{}, fmt.Errorf("%w: %d shards × split %d exceed the shard-count cap", ErrCorrupt, sc, sn)
		}
		if h.globalEntries > maxTotalSlots {
			// Global level positions must stay addressable by uint32.
			return layoutV2{}, fmt.Errorf("%w: %d global entries exceed the uint32 position space", ErrCorrupt, h.globalEntries)
		}
		var gsum uint64
		for c, n := range h.globalLevelCounts {
			if n > h.globalEntries {
				return layoutV2{}, fmt.Errorf("%w: global level %d declares %d entries, total %d", ErrCorrupt, c, n, h.globalEntries)
			}
			if n < h.levelCounts[c] {
				return layoutV2{}, fmt.Errorf("%w: global level %d smaller than its local share (%d < %d)", ErrCorrupt, c, n, h.levelCounts[c])
			}
			gsum += n
		}
		if gsum != h.globalEntries {
			return layoutV2{}, fmt.Errorf("%w: global level counts sum to %d, header declares %d", ErrCorrupt, gsum, h.globalEntries)
		}
	}
	l := computeLayoutV2(h.headerLen(), h.shardCount, h.slotsPerShard, h.entryCount, h.split())
	if l.keysOff != h.keysOff || l.valsOff != h.valsOff || l.idxOff != h.idxOff ||
		l.gposOff != h.gposOff || l.fileSize != h.fileSize {
		return layoutV2{}, fmt.Errorf("%w: section offsets disagree with the table geometry", ErrCorrupt)
	}
	return l, nil
}

// synthHorizon is the max synthesizable cost stamped into a v2 header:
// 2K − (maxGateCost−1), floored at K — the same value tables.NewLocal
// derives, recorded so readers of the raw header see it without the
// alphabet in hand.
func synthHorizon(a *bfs.Alphabet, k int) uint32 {
	h := 2*k - (a.MaxCost() - 1)
	if h < k {
		h = k
	}
	return uint32(h)
}

// sectionChunk bounds the per-step allocation while streaming sections
// off an untrusted reader: memory committed before a truncated or lying
// stream is caught stays proportional to the bytes actually supplied.
const sectionChunk = 1 << 20

// loadV2Stream is the copying v2 loader behind Load: it reads the whole
// stream, verifies every fingerprint, rebuilds the frozen table in heap
// slices (no rehash — the slot layout is taken as laid out) and then
// re-validates the structural invariants entry by entry. This is the
// path for untrusted bytes; LoadFile uses the mmap fast path instead
// when it can.
func loadV2Stream(br *bufio.Reader, alphabet *bfs.Alphabet, opts *LoadOptions) (*bfs.Result, *tables.Split, error) {
	page := make([]byte, pageAlign)
	if _, err := io.ReadFull(br, page[:headerFixedLen+8]); err != nil {
		return nil, nil, fmt.Errorf("%w: reading v2 header: %w", ErrCorrupt, err)
	}
	// The fixed fields give the variable header length (level counts,
	// split extension); read the remainder.
	le := binary.LittleEndian
	maxCost := le.Uint32(page[8:])
	if maxCost > uint32(bfs.MaxPackedCost) {
		return nil, nil, fmt.Errorf("%w: implausible horizon %d", ErrCorrupt, maxCost)
	}
	full := headerLenFor(le.Uint32(page[4:]), maxCost)
	if _, err := io.ReadFull(br, page[headerFixedLen+8:full]); err != nil {
		return nil, nil, fmt.Errorf("%w: reading v2 header: %w", ErrCorrupt, err)
	}
	h, headerLen, err := parseHeaderV2(page[:full])
	if err != nil {
		return nil, nil, err
	}
	if h.split() && !opts.AllowSplit {
		return nil, nil, fmt.Errorf("%w: store holds range %d of %d", ErrSplitStore, h.splitI, h.splitN)
	}
	if want := fingerprintOf(alphabet); h.fp != want {
		return nil, nil, fmt.Errorf("%w (file %+v, given %+v)", ErrAlphabetMismatch, h.fp, want)
	}
	l, err := validateGeometryV2(h, opts.entryCap())
	if err != nil {
		return nil, nil, err
	}
	pos := uint64(headerLen)
	skipTo := func(off uint64) error {
		if _, err := io.CopyN(io.Discard, br, int64(off-pos)); err != nil {
			return fmt.Errorf("%w: truncated section padding: %w", ErrCorrupt, err)
		}
		pos = off
		return nil
	}
	if err := skipTo(l.keysOff); err != nil {
		return nil, nil, err
	}
	total := int(l.totalSlots)
	keys := make([]uint64, 0, min(total, sectionChunk))
	buf := make([]byte, 1<<16)
	for len(keys) < total {
		n := min((total-len(keys))*8, len(buf))
		if _, err := io.ReadFull(br, buf[:n]); err != nil {
			return nil, nil, fmt.Errorf("%w: truncated key section: %w", ErrCorrupt, err)
		}
		for i := 0; i < n; i += 8 {
			keys = append(keys, le.Uint64(buf[i:]))
		}
		pos += uint64(n)
	}
	if got := hashKeyWords(keys); got != h.keysHash {
		return nil, nil, fmt.Errorf("%w: key section fingerprint mismatch", ErrCorrupt)
	}
	if err := skipTo(l.valsOff); err != nil {
		return nil, nil, err
	}
	vals := make([]uint16, 0, min(total, 4*sectionChunk))
	for len(vals) < total {
		n := min((total-len(vals))*2, len(buf))
		if _, err := io.ReadFull(br, buf[:n]); err != nil {
			return nil, nil, fmt.Errorf("%w: truncated value section: %w", ErrCorrupt, err)
		}
		for i := 0; i < n; i += 2 {
			vals = append(vals, le.Uint16(buf[i:]))
		}
		pos += uint64(n)
	}
	if got := hashValWords(vals); got != h.valsHash {
		return nil, nil, fmt.Errorf("%w: value section fingerprint mismatch", ErrCorrupt)
	}
	readU32s := func(count int, wantHash uint64, what string) ([]uint32, error) {
		out := make([]uint32, 0, min(count, 2*sectionChunk))
		for len(out) < count {
			n := min((count-len(out))*4, len(buf))
			if _, err := io.ReadFull(br, buf[:n]); err != nil {
				return nil, fmt.Errorf("%w: truncated %s section: %w", ErrCorrupt, what, err)
			}
			for i := 0; i < n; i += 4 {
				out = append(out, le.Uint32(buf[i:]))
			}
			pos += uint64(n)
		}
		if got := hashIdxWords(out); got != wantHash {
			return nil, fmt.Errorf("%w: %s section fingerprint mismatch", ErrCorrupt, what)
		}
		return out, nil
	}
	if err := skipTo(l.idxOff); err != nil {
		return nil, nil, err
	}
	entries := int(h.entryCount)
	idx, err := readU32s(entries, h.idxHash, "index")
	if err != nil {
		return nil, nil, err
	}
	var gpos []uint32
	if h.split() {
		if err := skipTo(l.gposOff); err != nil {
			return nil, nil, err
		}
		if gpos, err = readU32s(entries, h.gposHash, "global-position"); err != nil {
			return nil, nil, err
		}
	}
	// Consume the trailing alignment padding so the stream loader holds
	// the same strict length contract as the file loader.
	if err := skipTo(l.fileSize); err != nil {
		return nil, nil, err
	}
	return assembleV2(h, alphabet, keys, vals, idx, gpos, opts, true)
}

// assembleV2 builds the frozen-backend Result from parsed sections; for
// a split store it additionally assembles (and validates) the split
// metadata binding the local entries to the global level order.
func assembleV2(h *headerV2, alphabet *bfs.Alphabet, keys []uint64, vals []uint16, idx, gpos []uint32, opts *LoadOptions, verify bool) (*bfs.Result, *tables.Split, error) {
	ft, err := hashtab.NewFrozenSplit(keys, vals, int(h.shardCount), int(h.entryCount), max(int(h.splitN), 1), int(h.splitI))
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	counts := make([]int, h.maxCost+1)
	for c, n := range h.levelCounts {
		counts[c] = int(n)
	}
	res, err := bfs.FromFrozen(alphabet, int(h.maxCost), h.flags&flagReduced != 0, ft, idx, counts, verify)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	var split *tables.Split
	if h.split() {
		gcounts := make([]int, h.maxCost+1)
		for c, n := range h.globalLevelCounts {
			gcounts[c] = int(n)
		}
		split, err = tables.NewSplit(int(h.splitN), int(h.splitI), gcounts, counts, gpos)
		if err != nil {
			return nil, nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
		}
	}
	if opts.Progress != nil {
		for c, n := range counts {
			opts.Progress(c, n)
		}
	}
	return res, split, nil
}
