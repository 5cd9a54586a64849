package tablesio

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/bits"
	"os"
	"unsafe"

	"repro/internal/bfs"
	"repro/internal/hashtab"
)

// StreamGeometry pins the complete shape of a v2 store before its first
// byte is written: the streamed writer needs every header field except
// the section fingerprints up front (an out-of-core build knows them
// all once the final level is merged — entry counts come from the merge
// manifests, slots-per-shard from hashtab.FrozenSlotsPerShard over the
// per-shard maxima).
type StreamGeometry struct {
	Alphabet      *bfs.Alphabet
	MaxCost       int
	Reduced       bool
	ShardCount    int
	SlotsPerShard int
	EntryCount    int64
	LevelCounts   []int64

	// Split extension: SplitN > 1 writes range SplitIdx of SplitN (set
	// by SaveSplitFiles, the one split writer); the level counts above
	// are then the LOCAL counts and the global shape is carried
	// alongside.
	SplitN            int
	SplitIdx          int
	GlobalEntries     int64
	GlobalLevelCounts []int64
}

// StreamWriter is the one format-v2 encoder: it emits a store section
// by section, in shard order, without ever holding more than one
// shard's slot arrays. The out-of-core builder drives it shard by shard
// as it places them, SaveFile from a table already in memory, and
// SaveSplitFiles shard by shard from a finished store on disk. The
// writer owns the file layout (sparse-truncated up front, sections
// placed by WriteAt) and keeps running section fingerprints, so
// Finalize stamps the header last.
//
// Call sequence: WriteShard × ShardCount, then AppendIndex (any
// chunking) totalling EntryCount slots — with ProbeView available in
// between to resolve slots against the already-written arrays — then
// (split only) AppendGlobalPos totalling EntryCount, then Finalize.
type StreamWriter struct {
	f *os.File
	h *headerV2
	l layoutV2

	nextShard int
	keysHash  wordHash
	valsHash  wordHash
	idxHash   u32StreamHash
	gposHash  u32StreamHash
	idxCount  int64
	gposCount int64

	buf []byte
}

// u32StreamHash replicates hashIdxWords over a uint32 stream delivered
// in arbitrary chunks: two consecutive values pack into one hashed word,
// so a carry bridges chunk boundaries.
type u32StreamHash struct {
	h     wordHash
	carry uint64
	have  bool
}

func (x *u32StreamHash) add(v uint32) {
	if !x.have {
		x.carry = uint64(v)
		x.have = true
		return
	}
	x.h.word(x.carry | uint64(v)<<32)
	x.have = false
}

func (x *u32StreamHash) sum() uint64 {
	if x.have {
		x.h.word(x.carry)
		x.have = false
	}
	return x.h.sum()
}

// NewStreamWriter validates the geometry (the same checks a loader will
// apply) and prepares f — which must be empty — as a sparse file of the
// final size, so unwritten gaps read back as the zero padding the
// format requires.
func NewStreamWriter(f *os.File, g StreamGeometry) (*StreamWriter, error) {
	if g.Alphabet == nil {
		return nil, fmt.Errorf("tablesio: stream writer needs an alphabet")
	}
	return newStreamWriter(f, g, fingerprintOf(g.Alphabet), synthHorizon(g.Alphabet, g.MaxCost))
}

// newStreamWriter is NewStreamWriter with the alphabet fingerprint and
// synthesis horizon given, as a cut copies them from its source store.
func newStreamWriter(f *os.File, g StreamGeometry, fp fingerprint, horizon uint32) (*StreamWriter, error) {
	split := g.SplitN > 1
	h := &headerV2{
		maxCost:       uint32(g.MaxCost),
		horizon:       horizon,
		fp:            fp,
		shardCount:    uint32(g.ShardCount),
		slotsPerShard: uint64(g.SlotsPerShard),
		entryCount:    uint64(g.EntryCount),
	}
	if g.Reduced {
		h.flags |= flagReduced
	}
	if len(g.LevelCounts) != g.MaxCost+1 {
		return nil, fmt.Errorf("tablesio: %d level counts for horizon %d", len(g.LevelCounts), g.MaxCost)
	}
	h.levelCounts = make([]uint64, len(g.LevelCounts))
	for c, n := range g.LevelCounts {
		h.levelCounts[c] = uint64(n)
	}
	if split {
		h.flags |= flagSplit
		h.splitN = uint32(g.SplitN)
		h.splitI = uint32(g.SplitIdx)
		h.globalEntries = uint64(g.GlobalEntries)
		if len(g.GlobalLevelCounts) != g.MaxCost+1 {
			return nil, fmt.Errorf("tablesio: %d global level counts for horizon %d", len(g.GlobalLevelCounts), g.MaxCost)
		}
		h.globalLevelCounts = make([]uint64, len(g.GlobalLevelCounts))
		for c, n := range g.GlobalLevelCounts {
			h.globalLevelCounts[c] = uint64(n)
		}
	}
	if g.MaxCost < 0 || g.MaxCost > bfs.MaxPackedCost {
		return nil, fmt.Errorf("tablesio: horizon %d outside [0, %d]", g.MaxCost, bfs.MaxPackedCost)
	}
	l := computeLayoutV2(h.headerLen(), h.shardCount, h.slotsPerShard, h.entryCount, split)
	h.keysOff, h.valsOff, h.idxOff, h.gposOff, h.fileSize = l.keysOff, l.valsOff, l.idxOff, l.gposOff, l.fileSize
	if _, err := validateGeometryV2(h, math.MaxInt64); err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() != 0 {
		return nil, fmt.Errorf("tablesio: stream writer needs an empty file, got %d bytes", st.Size())
	}
	if err := f.Truncate(int64(l.fileSize)); err != nil {
		return nil, err
	}
	return &StreamWriter{
		f:        f,
		h:        h,
		l:        l,
		keysHash: newWordHash(),
		valsHash: newWordHash(),
		idxHash:  u32StreamHash{h: newWordHash()},
		gposHash: u32StreamHash{h: newWordHash()},
	}, nil
}

// SetBuffer makes the writer encode sections through buf, a buffer the
// caller owns, growing past it only when a shard or chunk needs more.
func (w *StreamWriter) SetBuffer(buf []byte) { w.buf = buf }

// WriteShard writes the next shard's slot arrays (exactly SlotsPerShard
// entries each, zero keys marking empty slots) into the keys and vals
// sections. Shards must arrive in shard order. Because slots-per-shard
// is a power of two ≥ 16, every shard covers whole hashed words in both
// sections, so the running fingerprints never straddle a call.
func (w *StreamWriter) WriteShard(keys []uint64, vals []uint16) error {
	sps := int(w.h.slotsPerShard)
	if len(keys) != sps || len(vals) != sps {
		return fmt.Errorf("tablesio: shard arrays hold %d/%d slots, geometry says %d", len(keys), len(vals), sps)
	}
	if w.nextShard >= int(w.h.shardCount) {
		return fmt.Errorf("tablesio: all %d shards already written", w.h.shardCount)
	}
	if cap(w.buf) < sps*8 {
		w.buf = make([]byte, sps*8)
	}
	b := w.buf[:sps*8]
	for i, k := range keys {
		binary.LittleEndian.PutUint64(b[i*8:], k)
		w.keysHash.word(k)
	}
	if _, err := w.f.WriteAt(b, int64(w.l.keysOff)+int64(w.nextShard)*int64(sps)*8); err != nil {
		return err
	}
	b = w.buf[:sps*2]
	var word uint64
	for i, v := range vals {
		binary.LittleEndian.PutUint16(b[i*2:], v)
		word |= uint64(v) << ((i % 4) * 16)
		if i%4 == 3 {
			w.valsHash.word(word)
			word = 0
		}
	}
	if _, err := w.f.WriteAt(b, int64(w.l.valsOff)+int64(w.nextShard)*int64(sps)*2); err != nil {
		return err
	}
	w.nextShard++
	return nil
}

// appendU32s writes a chunk of a uint32 section at the given running
// offset, feeding the stream hash.
func (w *StreamWriter) appendU32s(vs []uint32, base uint64, count int64, hash *u32StreamHash) error {
	if cap(w.buf) < len(vs)*4 {
		w.buf = make([]byte, len(vs)*4)
	}
	b := w.buf[:len(vs)*4]
	for i, v := range vs {
		binary.LittleEndian.PutUint32(b[i*4:], v)
		hash.add(v)
	}
	_, err := w.f.WriteAt(b, int64(base)+count*4)
	return err
}

// AppendIndex appends slots to the per-level index section, in level
// order. Chunk boundaries are free — a builder typically appends one
// level at a time.
func (w *StreamWriter) AppendIndex(slots []uint32) error {
	if w.idxCount+int64(len(slots)) > int64(w.h.entryCount) {
		return fmt.Errorf("tablesio: index would exceed %d entries", w.h.entryCount)
	}
	if err := w.appendU32s(slots, w.l.idxOff, w.idxCount, &w.idxHash); err != nil {
		return err
	}
	w.idxCount += int64(len(slots))
	return nil
}

// AppendGlobalPos appends global level positions (split stores only),
// aligned one-to-one with the index entries already appended.
func (w *StreamWriter) AppendGlobalPos(pos []uint32) error {
	if !w.h.split() {
		return fmt.Errorf("tablesio: global positions on a full store")
	}
	if w.gposCount+int64(len(pos)) > int64(w.h.entryCount) {
		return fmt.Errorf("tablesio: global positions would exceed %d entries", w.h.entryCount)
	}
	if err := w.appendU32s(pos, w.l.gposOff, w.gposCount, &w.gposHash); err != nil {
		return err
	}
	w.gposCount += int64(len(pos))
	return nil
}

// ProbeView exposes the already-written keys/vals sections as a frozen
// table, so the builder can resolve each representative's slot while
// streaming the level index — the random access rides the page cache
// instead of a second in-heap copy. Valid once every shard is written.
// The returned release function must be called before Finalize returns
// the file to the caller; the view must not outlive it. On platforms
// without mmap the sections are read back into heap slices (correct,
// but the build is then bounded by available memory at emission).
func (w *StreamWriter) ProbeView() (*hashtab.FrozenTable, func() error, error) {
	if w.nextShard != int(w.h.shardCount) {
		return nil, nil, fmt.Errorf("tablesio: probe view before all shards written (%d of %d)", w.nextShard, w.h.shardCount)
	}
	total := int(w.l.totalSlots)
	var (
		keys    []uint64
		vals    []uint16
		release func() error
	)
	if mmapSupported {
		data, unmap, err := mmapFile(w.f, int64(w.l.idxOff))
		if err != nil {
			return nil, nil, err
		}
		keys = unsafe.Slice((*uint64)(unsafe.Pointer(&data[w.l.keysOff])), total)
		vals = unsafe.Slice((*uint16)(unsafe.Pointer(&data[w.l.valsOff])), total)
		release = unmap
	} else {
		keys = make([]uint64, total)
		vals = make([]uint16, total)
		kb := make([]byte, total*8)
		if _, err := w.f.ReadAt(kb, int64(w.l.keysOff)); err != nil {
			return nil, nil, err
		}
		for i := range keys {
			keys[i] = binary.LittleEndian.Uint64(kb[i*8:])
		}
		vb := kb[:total*2]
		if _, err := w.f.ReadAt(vb, int64(w.l.valsOff)); err != nil {
			return nil, nil, err
		}
		for i := range vals {
			vals[i] = binary.LittleEndian.Uint16(vb[i*2:])
		}
		release = func() error { return nil }
	}
	ft, err := hashtab.NewFrozenSplit(keys, vals, int(w.h.shardCount), int(w.h.entryCount), max(int(w.h.splitN), 1), int(w.h.splitI))
	if err != nil {
		release()
		return nil, nil, err
	}
	return ft, release, nil
}

// Finalize checks that every section is complete, stamps the section
// fingerprints into the header, and writes it at offset 0 — the last
// write, so a crash mid-stream leaves a file no loader accepts (the
// header page is still zero). The caller keeps ownership of the file.
func (w *StreamWriter) Finalize() error {
	if w.nextShard != int(w.h.shardCount) {
		return fmt.Errorf("tablesio: finalize with %d of %d shards written", w.nextShard, w.h.shardCount)
	}
	if w.idxCount != int64(w.h.entryCount) {
		return fmt.Errorf("tablesio: finalize with %d of %d index entries", w.idxCount, w.h.entryCount)
	}
	if w.h.split() && w.gposCount != int64(w.h.entryCount) {
		return fmt.Errorf("tablesio: finalize with %d of %d global positions", w.gposCount, w.h.entryCount)
	}
	w.h.keysHash = w.keysHash.sum()
	w.h.valsHash = w.valsHash.sum()
	w.h.idxHash = w.idxHash.sum()
	if w.h.split() {
		w.h.gposHash = w.gposHash.sum()
	}
	_, err := w.f.WriteAt(encodeHeaderV2(w.h), 0)
	return err
}

// splitSource is a full store opened to be cut into split stores
// (SaveSplitFiles). A split's shards are the source's shards at the
// same hash shift, and hashtab.PlaceShardCanonical is a pure function
// of a shard's entries and slot count, so where a split's slots per
// shard equal the source's, each split shard is its source shard byte
// for byte and source slot s is split slot s − first·sps. Otherwise (a
// range narrower than a shard, or one whose fullest shard is emptier
// than the store's) each shard is re-placed, and a remap of the range's
// source slots carries the level index over. The source is read through
// one chunk buffer and one shard's slot arrays, which every cut shares.
type splitSource struct {
	f    *os.File
	h    *headerV2
	l    layoutV2
	buf  []byte   // one read chunk
	keys []uint64 // one source shard's slot arrays
	vals []uint16
	wbuf []byte // the cuts' encoding buffer
}

// openSplitSource checks that f holds a full store, sized as its
// geometry says, whose three section fingerprints hold.
func openSplitSource(f *os.File) (*splitSource, error) {
	h, err := readHeaderPage(f)
	if err != nil {
		return nil, err
	}
	if h.split() {
		return nil, fmt.Errorf("%w: source holds range %d of %d; cut from the full store", ErrSplitStore, h.splitI, h.splitN)
	}
	l, err := validateGeometryV2(h, math.MaxInt64)
	if err != nil {
		return nil, err
	}
	if st, err := f.Stat(); err != nil || uint64(st.Size()) != l.fileSize {
		return nil, fmt.Errorf("%w: source size does not match its geometry (%v)", ErrCorrupt, err)
	}
	sps := int(h.slotsPerShard)
	s := &splitSource{f: f, h: h, l: l, buf: make([]byte, writeChunk),
		keys: make([]uint64, sps), vals: make([]uint16, sps), wbuf: make([]byte, max(sps*8, writeChunk))}
	// Each section's fingerprint hashes its little-endian words; the
	// index section is zero-padded to a whole word.
	for _, sec := range []struct{ off, size, sum uint64 }{
		{l.keysOff, l.totalSlots * 8, h.keysHash}, {l.valsOff, l.totalSlots * 2, h.valsHash},
		{l.idxOff, alignUp(h.entryCount*4, 8), h.idxHash},
	} {
		wh := newWordHash()
		if err := s.read(sec.off, sec.size, func(b []byte) {
			for x := 0; x < len(b); x += 8 {
				wh.word(binary.LittleEndian.Uint64(b[x:]))
			}
		}); err != nil {
			return nil, err
		}
		if wh.sum() != sec.sum {
			return nil, fmt.Errorf("%w: source section fingerprint mismatch", ErrCorrupt)
		}
	}
	return s, nil
}

// read hands size bytes from off to fn a chunk at a time.
func (s *splitSource) read(off, size uint64, fn func([]byte)) error {
	for size > 0 {
		b := s.buf[:min(size, uint64(len(s.buf)))]
		if _, err := s.f.ReadAt(b, int64(off)); err != nil {
			return err
		}
		fn(b)
		off, size = off+uint64(len(b)), size-uint64(len(b))
	}
	return nil
}

// loadShard reads source shard src's slot arrays into keys and vals.
func (s *splitSource) loadShard(src int) error {
	le, sps := binary.LittleEndian, uint64(len(s.keys))
	off, x := uint64(src)*sps, 0
	err := s.read(s.l.keysOff+off*8, sps*8, func(b []byte) {
		for p := 0; p < len(b); p, x = p+8, x+1 {
			s.keys[x] = le.Uint64(b[p:])
		}
	})
	x = 0
	if err == nil {
		err = s.read(s.l.valsOff+off*2, sps*2, func(b []byte) {
			for p := 0; p < len(b); p, x = p+2, x+1 {
				s.vals[x] = le.Uint16(b[p:])
			}
		})
	}
	return err
}

// splitShift is the hash shift of an n-way cut's shards: Hash64Shift(k)
// >> splitShift(sc, n) numbers k's split shard across all n ranges,
// range i holding max(sc/n, 1) consecutive ones.
func splitShift(sc, n int) uint { return uint(64 - bits.TrailingZeros(uint(max(sc, n)))) }

// plan sizes the n ranges of a cut from one read of the source's
// shards: each range's entries per level, counted by cost tag, and its
// fullest shard, which fixes its slots per shard.
func (s *splitSource) plan(n int) ([]StreamGeometry, error) {
	h := s.h
	sc := int(h.shardCount)
	shards, shift := max(sc/n, 1), splitShift(sc, n)
	// Shard counts and n are powers of two: a key's source shard and its
	// split's range are shifts of its hash.
	srcShift, rangeShift := splitShift(sc, 1), uint(bits.TrailingZeros(uint(shards)))
	global := make([]int64, h.maxCost+1)
	for lv, cnt := range h.levelCounts {
		global[lv] = int64(cnt)
	}
	cuts := make([]StreamGeometry, n)
	for i := range cuts {
		cuts[i] = StreamGeometry{MaxCost: int(h.maxCost), Reduced: h.flags&flagReduced != 0, ShardCount: shards,
			LevelCounts: make([]int64, h.maxCost+1), SplitN: n, SplitIdx: i,
			GlobalEntries: int64(h.entryCount), GlobalLevelCounts: global}
	}
	held := make([]int, shards*n) // entries per split shard
	for src := range sc {
		if err := s.loadShard(src); err != nil {
			return nil, err
		}
		for x, k := range s.keys {
			if k == 0 {
				continue
			}
			hk := hashtab.Hash64Shift(k)
			if hk>>srcShift != uint64(src) {
				return nil, fmt.Errorf("%w: key %#x stored in shard %d is not that shard's", ErrCorrupt, k, src)
			}
			cost := bfs.UnpackValue(s.vals[x]).Cost
			if cost > int(h.maxCost) {
				return nil, fmt.Errorf("%w: cost tag %d over horizon %d", ErrCorrupt, cost, h.maxCost)
			}
			gs := hk >> shift
			cuts[gs>>rangeShift].LevelCounts[cost]++
			held[gs]++
		}
	}
	for i := range cuts {
		g, fullest := &cuts[i], 0
		for _, e := range held[i*shards : (i+1)*shards] {
			fullest, g.EntryCount = max(fullest, e), g.EntryCount+int64(e)
		}
		if g.EntryCount == 0 {
			return nil, fmt.Errorf("tablesio: split %d/%d owns no entries (table too small for %d ranges)", i, n, n)
		}
		g.SlotsPerShard = hashtab.FrozenSlotsPerShard(fullest)
	}
	return cuts, nil
}

// cut writes the split store g (one of plan's) to out: its shards,
// then one walk of the source's level index keeps the range's entries,
// each with its split slot and its position in its level.
func (s *splitSource) cut(out *os.File, g *StreamGeometry) error {
	h, le := s.h, binary.LittleEndian
	n, i := g.SplitN, g.SplitIdx
	sc, sps := int(h.shardCount), int(h.slotsPerShard)
	shards, first := g.ShardCount, i*sc/n // split shard j lies in source shard first+j
	shift := splitShift(sc, n)
	owns := func(k uint64, j int) bool { return k != 0 && hashtab.Hash64Shift(k)>>shift == uint64(i*shards+j) }
	w, err := newStreamWriter(out, *g, h.fp, h.horizon)
	if err != nil {
		return err
	}
	w.SetBuffer(s.wbuf)
	var (
		remap              []uint32 // split slot + 1 of source slot first·sps + s; 0: another range's
		slotKeys, ks       []uint64
		slotVals, vs       []uint16
		at                 []uint32
		scratch            hashtab.PlaceScratch
		splitSps, slotMask = g.SlotsPerShard, uint64(g.SlotsPerShard - 1)
	)
	if copied := n <= sc && splitSps == sps; !copied {
		remap = make([]uint32, shards*sps)
		slotKeys, slotVals = make([]uint64, splitSps), make([]uint16, splitSps)
	}
	for j := range shards {
		if err := s.loadShard(first + j); err != nil {
			return err
		}
		if remap == nil {
			if err := w.WriteShard(s.keys, s.vals); err != nil {
				return err
			}
			continue
		}
		ks, vs, at = ks[:0], vs[:0], at[:0]
		for x, k := range s.keys {
			if owns(k, j) {
				ks, vs, at = append(ks, k), append(vs, s.vals[x]), append(at, uint32(j*sps+x))
			}
		}
		clear(slotKeys)
		clear(slotVals)
		hashtab.PlaceShardCanonical(ks, vs, slotKeys, slotVals, &scratch)
		for e, k := range ks {
			x := hashtab.Hash64Shift(k) & slotMask
			for slotKeys[x] != k {
				x = (x + 1) & slotMask
			}
			remap[at[e]] = uint32(j*splitSps) + uint32(x) + 1
		}
		if err := w.WriteShard(slotKeys, slotVals); err != nil {
			return err
		}
	}
	span, lo := uint64(shards*sps), uint64(first*sps)
	idx, gpos := make([]uint32, 0, writeChunk/4), make([]uint32, 0, writeChunk/4)
	walked := make([]int64, len(g.LevelCounts))
	level, pos := 0, uint64(0)
	if err := s.read(s.l.idxOff, h.entryCount*4, func(b []byte) {
		idx, gpos = idx[:0], gpos[:0]
		for x := 0; x < len(b); x, pos = x+4, pos+1 {
			for pos == h.levelCounts[level] {
				level, pos = level+1, 0
			}
			slot := uint64(le.Uint32(b[x:])) - lo
			if slot < span && remap != nil {
				slot = uint64(remap[slot]) - 1 // past span for another range's key
			}
			if slot < span {
				idx, gpos = append(idx, uint32(slot)), append(gpos, uint32(pos))
				walked[level]++
			}
		}
		if err == nil {
			err = w.AppendIndex(idx)
		}
		if err == nil {
			err = w.AppendGlobalPos(gpos)
		}
	}); err != nil {
		return err
	}
	for lv, cnt := range walked {
		if err == nil && cnt != g.LevelCounts[lv] {
			err = fmt.Errorf("%w: level %d indexes %d entries of the range, cost tags say %d", ErrCorrupt, lv, cnt, g.LevelCounts[lv])
		}
	}
	if err != nil {
		return err
	}
	return w.Finalize()
}
