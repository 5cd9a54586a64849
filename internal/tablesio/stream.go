package tablesio

import (
	"encoding/binary"
	"fmt"
	"math"
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

	// Split extension: SplitN > 1 writes range SplitIdx of SplitN (the
	// direct fleet-emission path); the level counts above are then the
	// LOCAL counts and the global shape is carried alongside.
	SplitN            int
	SplitIdx          int
	GlobalEntries     int64
	GlobalLevelCounts []int64
}

// StreamWriter is the one format-v2 encoder: it emits a store section
// by section, in shard order, without ever holding more than one
// shard's slot arrays. The out-of-core builder drives it shard by shard
// as it places them; SaveFile and SaveSplitFile drive it from a table
// already in memory. The writer owns the file layout (sparse-truncated
// up front, sections placed by WriteAt) and keeps running section
// fingerprints, so Finalize stamps the header last.
//
// Call sequence: WriteShard × ShardCount, then AppendIndex (any
// chunking) totalling EntryCount slots — with ProbeView available in
// between to resolve slots against the already-written arrays — then
// (split only) AppendGlobalPos totalling EntryCount, then Finalize.
type StreamWriter struct {
	f     *os.File
	h     *headerV2
	l     layoutV2
	split bool

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
	split := g.SplitN > 1
	h := &headerV2{
		maxCost:       uint32(g.MaxCost),
		horizon:       synthHorizon(g.Alphabet, g.MaxCost),
		fp:            fingerprintOf(g.Alphabet),
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
		split:    split,
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
	if !w.split {
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
	var (
		ft  *hashtab.FrozenTable
		err error
	)
	if w.split {
		ft, err = hashtab.NewFrozenSplit(keys, vals, int(w.h.shardCount), int(w.h.entryCount), int(w.h.splitN), int(w.h.splitI))
	} else {
		ft, err = hashtab.NewFrozen(keys, vals, int(w.h.shardCount), int(w.h.entryCount))
	}
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
	if w.split && w.gposCount != int64(w.h.entryCount) {
		return fmt.Errorf("tablesio: finalize with %d of %d global positions", w.gposCount, w.h.entryCount)
	}
	w.h.keysHash = w.keysHash.sum()
	w.h.valsHash = w.valsHash.sum()
	w.h.idxHash = w.idxHash.sum()
	if w.split {
		w.h.gposHash = w.gposHash.sum()
	}
	_, err := w.f.WriteAt(encodeHeaderV2(w.h), 0)
	return err
}
