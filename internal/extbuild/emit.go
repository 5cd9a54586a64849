package extbuild

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/hashtab"
	"repro/internal/tablesio"
)

// emit writes the configured stores straight off the level artifacts:
// the full store (OutPath) and/or the SplitN pre-split range files. No
// in-memory table is ever built — each emitted shard's entries are
// gathered by one ReadAt per level from the .srt segments, laid out
// canonically, and streamed; the per-level index is then resolved by
// probing the just-written file through the StreamWriter's probe view
// while streaming the .seq files in discovery order. Byte-identity with
// tablesio.SaveFile/SaveSplitFile holds because every geometry decision
// (shard count, slots per shard, placement order, level order) is the
// same pure function of the entry set that hashtab.Compact and
// CompactSplit apply.
func (b *builder) emit() error {
	if b.o.OutPath == "" && b.o.SplitN <= 1 {
		return nil
	}
	if err := b.failPoint("emit", b.o.K, -1); err != nil {
		return err
	}
	b.progress(ProgressEvent{Phase: "emit", Level: b.o.K})

	lv := newLevelFiles(b)
	if err := lv.open(); err != nil {
		return err
	}
	defer lv.close()

	// One set of shard buffers serves every emitted store: sized for the
	// fullest shard of the whole table, it fits any range of it.
	maxPerShard := lv.maxShardEntries(0, b.shards)
	perShard := hashtab.FrozenSlotsPerShard(maxPerShard)
	charge := int64(maxPerShard)*(8+2) + int64(perShard)*(8+2) +
		hashtab.PlaceScratchBytes(maxPerShard, perShard)
	b.mem.add(charge)
	defer b.mem.release(charge)
	bufs := &emitBufs{
		keys:     make([]uint64, 0, maxPerShard),
		vals:     make([]uint16, 0, maxPerShard),
		slotKeys: make([]uint64, perShard),
		slotVals: make([]uint16, perShard),
	}

	if b.o.OutPath != "" {
		if err := b.emitStore(lv, bufs, 0, b.shards, 1, 0, b.o.OutPath); err != nil {
			return err
		}
	}
	if b.o.SplitN > 1 {
		sc := b.shards / b.o.SplitN
		for i := 0; i < b.o.SplitN; i++ {
			if err := b.emitStore(lv, bufs, i*sc, (i+1)*sc, b.o.SplitN, i, b.o.SplitPath(i)); err != nil {
				return err
			}
		}
	}
	b.progress(ProgressEvent{Phase: "emit", Level: b.o.K, Done: true})
	return nil
}

// levelFiles holds the open .srt files and their per-shard geometry for
// random-access reads during emission.
type levelFiles struct {
	b      *builder
	srt    []*os.File
	counts [][]uint64 // [level][shard]
	offs   [][]int64  // [level][shard] byte offset of the segment
}

func newLevelFiles(b *builder) *levelFiles { return &levelFiles{b: b} }

func (l *levelFiles) open() error {
	for _, lv := range l.b.man.Levels {
		f, err := os.Open(filepath.Join(l.b.dir, lv.Srt.Name))
		if err != nil {
			l.close()
			return err
		}
		counts, err := readCountsTrailer(f, l.b.shards, srtRecordBytes)
		if err != nil {
			f.Close()
			l.close()
			return err
		}
		l.srt = append(l.srt, f)
		l.counts = append(l.counts, counts)
		l.offs = append(l.offs, srtSegments(counts))
	}
	return nil
}

func (l *levelFiles) close() {
	for _, f := range l.srt {
		f.Close()
	}
	l.srt = nil
}

// maxShardEntries returns the entry count of the fullest shard in
// [shardLo, shardHi), summed over all levels.
func (l *levelFiles) maxShardEntries(shardLo, shardHi int) int {
	m := 0
	for s := shardLo; s < shardHi; s++ {
		n := 0
		for c := range l.counts {
			n += int(l.counts[c][s])
		}
		m = max(m, n)
	}
	return m
}

// emitBufs are the emission phase's shard buffers: one shard's gathered
// entries, its slot arrays, and the placement scratch.
type emitBufs struct {
	keys     []uint64
	vals     []uint16
	slotKeys []uint64
	slotVals []uint16
	place    hashtab.PlaceScratch
}

// readShard appends level c's shard-s entries to the key/val buffers.
func (l *levelFiles) readShard(c, s int, keys []uint64, vals []uint16) ([]uint64, []uint16, error) {
	n := int(l.counts[c][s])
	if n == 0 {
		return keys, vals, nil
	}
	buf := make([]byte, n*srtRecordBytes)
	if _, err := l.srt[c].ReadAt(buf, l.offs[c][s]); err != nil {
		return nil, nil, err
	}
	l.b.spillR += int64(len(buf))
	for i := 0; i < n; i++ {
		rec := buf[i*srtRecordBytes:]
		keys = append(keys, binary.LittleEndian.Uint64(rec))
		vals = append(vals, binary.LittleEndian.Uint16(rec[8:]))
	}
	return keys, vals, nil
}

// emitStore streams one store covering global shards [shardLo, shardHi)
// as range splitIdx of splitN (1×[0] is the full store) to path,
// atomically.
func (b *builder) emitStore(lv *levelFiles, bufs *emitBufs, shardLo, shardHi, splitN, splitIdx int, path string) error {
	levels := b.man.Levels
	localCounts := make([]int64, len(levels))
	globalCounts := make([]int64, len(levels))
	var localTotal, globalTotal int64
	for c := range levels {
		globalCounts[c] = levels[c].Entries
		globalTotal += levels[c].Entries
		for s := shardLo; s < shardHi; s++ {
			localCounts[c] += int64(lv.counts[c][s])
		}
		localTotal += localCounts[c]
	}
	perShard := hashtab.FrozenSlotsPerShard(lv.maxShardEntries(shardLo, shardHi))

	g := tablesio.StreamGeometry{
		Alphabet:      b.a,
		MaxCost:       b.o.K,
		Reduced:       b.reduced,
		ShardCount:    shardHi - shardLo,
		SlotsPerShard: perShard,
		EntryCount:    localTotal,
		LevelCounts:   localCounts,
	}
	if splitN > 1 {
		g.SplitN, g.SplitIdx = splitN, splitIdx
		g.GlobalEntries, g.GlobalLevelCounts = globalTotal, globalCounts
	}

	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".rvt-emit-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmpName)
		}
	}()
	w, err := tablesio.NewStreamWriter(tmp, g)
	if err != nil {
		return err
	}

	slotKeys, slotVals := bufs.slotKeys[:perShard], bufs.slotVals[:perShard]
	for s := shardLo; s < shardHi; s++ {
		keys, vals := bufs.keys[:0], bufs.vals[:0]
		for c := range levels {
			keys, vals, err = lv.readShard(c, s, keys, vals)
			if err != nil {
				return err
			}
		}
		clear(slotKeys)
		clear(slotVals)
		hashtab.PlaceShardCanonical(keys, vals, slotKeys, slotVals, &bufs.place)
		if err := w.WriteShard(slotKeys, slotVals); err != nil {
			return err
		}
	}

	pv, releasePV, err := w.ProbeView()
	if err != nil {
		return err
	}
	if err := b.appendIndexFromSeq(w, pv, shardLo, shardHi, splitN > 1); err != nil {
		releasePV()
		return err
	}
	if err := releasePV(); err != nil {
		return err
	}
	if err := w.Finalize(); err != nil {
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	if err := tmp.Close(); err != nil {
		tmp = nil
		return err
	}
	tmp = nil
	if err := os.Rename(tmpName, path); err != nil {
		os.Remove(tmpName)
		return err
	}
	return tablesio.SyncDir(dir)
}

// appendIndexFromSeq streams every level's .seq file in discovery order,
// resolving each in-range key to its slot through the probe view — the
// per-level index is thereby in the exact order the sequential
// in-memory build would have recorded, and for splits each entry's
// global level position rides along.
func (b *builder) appendIndexFromSeq(w *tablesio.StreamWriter, pv *hashtab.FrozenTable, shardLo, shardHi int, split bool) error {
	const chunk = 8192
	idx := make([]uint32, 0, chunk)
	gpos := make([]uint32, 0, chunk)
	flush := func() error {
		if len(idx) == 0 {
			return nil
		}
		if err := w.AppendIndex(idx); err != nil {
			return err
		}
		if split {
			if err := w.AppendGlobalPos(gpos); err != nil {
				return err
			}
		}
		idx, gpos = idx[:0], gpos[:0]
		return nil
	}
	for _, lvm := range b.man.Levels {
		f, err := os.Open(filepath.Join(b.dir, lvm.Seq.Name))
		if err != nil {
			return err
		}
		br := bufio.NewReaderSize(f, b.fanBuf)
		var rec [seqRecordBytes]byte
		for j := int64(0); ; j++ {
			_, err := io.ReadFull(br, rec[:])
			if err == io.EOF {
				break
			}
			if err != nil {
				f.Close()
				return fmt.Errorf("extbuild: truncated %s: %w", lvm.Seq.Name, err)
			}
			b.spillR += seqRecordBytes
			key := getSeqRecord(rec[:])
			shard := int(hashtab.Hash64Shift(key) >> b.shardShift)
			if shard < shardLo || shard >= shardHi {
				continue
			}
			slot, ok := pv.SlotOf(key)
			if !ok {
				f.Close()
				return fmt.Errorf("extbuild: level %d key %#x missing from emitted store", lvm.Level, key)
			}
			idx = append(idx, slot)
			if split {
				gpos = append(gpos, uint32(j))
			}
			if len(idx) == chunk {
				if err := flush(); err != nil {
					f.Close()
					return err
				}
			}
		}
		f.Close()
	}
	return flush()
}
