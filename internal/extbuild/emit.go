package extbuild

import (
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/hashtab"
	"repro/internal/tablesio"
)

// idxChunk is how many .seq records one index-resolution item covers.
const idxChunk = 1 << 15

// emit writes the configured stores straight off the level artifacts:
// the full store (OutPath) and/or the SplitN pre-split range files, one
// store after another. No in-memory table is ever built. Within a
// store, workers gather each shard's entries from the .srt segments
// (one ReadAt per level), lay them out canonically, and hand them to
// the StreamWriter in shard order; the per-level index is then resolved
// by probing the just-written file through the writer's read-only probe
// view, the workers splitting the .seq files into chunks and appending
// the resolved slots in discovery order. Byte-identity with
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

	e, err := b.newEmitter()
	if err != nil {
		return err
	}
	defer e.close()
	if b.o.OutPath != "" {
		if err := e.emitStore(0, b.shards, 1, 0, b.o.OutPath); err != nil {
			return err
		}
	}
	if b.o.SplitN > 1 {
		sc := b.shards / b.o.SplitN
		for i := 0; i < b.o.SplitN; i++ {
			if err := e.emitStore(i*sc, (i+1)*sc, b.o.SplitN, i, b.o.SplitPath(i)); err != nil {
				return err
			}
		}
	}
	b.progress(ProgressEvent{Phase: "emit", Level: b.o.K, Done: true})
	return nil
}

// emitter holds the open level artifacts and the per-worker buffers
// that every emitted store reuses.
type emitter struct {
	b      *builder
	srt    []*segFile
	seq    []*os.File
	bufs   []*emitBufs
	charge int64 // one worker's buffers
	// Sized for the fullest shard of the whole table, a worker's
	// buffers fit any range of it.
	maxPerShard, perShard int
}

func (b *builder) newEmitter() (*emitter, error) {
	e := &emitter{b: b}
	paths := make([]string, len(b.man.Levels))
	for i, lv := range b.man.Levels {
		paths[i] = filepath.Join(b.dir, lv.Srt.Name)
	}
	var err error
	if e.srt, err = openSegFiles(paths, b.shards, srtRecordBytes); err != nil {
		return nil, err
	}
	for _, lv := range b.man.Levels {
		f, err := os.Open(filepath.Join(b.dir, lv.Seq.Name))
		if err != nil {
			e.close()
			return nil, err
		}
		e.seq = append(e.seq, f)
	}
	e.maxPerShard = e.maxShardEntries(0, b.shards)
	e.perShard = hashtab.FrozenSlotsPerShard(e.maxPerShard)
	e.charge = int64(e.maxPerShard)*(8+2+srtRecordBytes) + int64(e.perShard)*(8+2) +
		hashtab.PlaceScratchBytes(e.maxPerShard, e.perShard) + idxChunk*(seqRecordBytes+4+4)
	// The emission workers' buffers may take half the budget (the probe
	// table is gone by now), so a table whose fullest shard is a large
	// share of the budget emits on fewer workers.
	workers := int(clamp64(b.budget/2/e.charge, 1, int64(b.workers)))
	e.bufs = make([]*emitBufs, workers)
	return e, nil
}

func (e *emitter) close() {
	closeSegFiles(e.srt)
	for _, f := range e.seq {
		f.Close()
	}
	for _, eb := range e.bufs {
		if eb != nil {
			e.b.mem.release(e.charge)
		}
	}
}

// buf returns worker w's buffers, allocating and charging them on first
// use.
func (e *emitter) buf(w int) *emitBufs {
	if e.bufs[w] == nil {
		e.b.mem.add(e.charge)
		e.bufs[w] = &emitBufs{
			keys:     make([]uint64, 0, e.maxPerShard),
			vals:     make([]uint16, 0, e.maxPerShard),
			slotKeys: make([]uint64, e.perShard),
			slotVals: make([]uint16, e.perShard),
			seqRaw:   make([]byte, idxChunk*seqRecordBytes),
			idx:      make([]uint32, 0, idxChunk),
			gpos:     make([]uint32, 0, idxChunk),
		}
	}
	return e.bufs[w]
}

// maxShardEntries returns the entry count of the fullest shard in
// [shardLo, shardHi), summed over all levels.
func (e *emitter) maxShardEntries(shardLo, shardHi int) int {
	m := 0
	for s := shardLo; s < shardHi; s++ {
		n := 0
		for _, lf := range e.srt {
			n += int(lf.counts[s])
		}
		m = max(m, n)
	}
	return m
}

// emitBufs are one emission worker's buffers: a shard's gathered
// entries and their raw records, its slot arrays, the placement
// scratch, and one index chunk's .seq records and resolved slots.
type emitBufs struct {
	keys     []uint64
	vals     []uint16
	raw      []byte
	slotKeys []uint64
	slotVals []uint16
	place    hashtab.PlaceScratch
	seqRaw   []byte
	idx      []uint32
	gpos     []uint32
}

// gatherShard collects shard s's entries of every level into keys/vals.
func (e *emitter) gatherShard(eb *emitBufs, s int) error {
	eb.keys, eb.vals = eb.keys[:0], eb.vals[:0]
	for _, lf := range e.srt {
		raw, err := lf.readSegment(s, eb.raw)
		if err != nil {
			return err
		}
		eb.raw = raw
		e.b.spillR.Add(int64(len(raw)))
		for i := 0; i < len(raw); i += srtRecordBytes {
			eb.keys = append(eb.keys, binary.LittleEndian.Uint64(raw[i:]))
			eb.vals = append(eb.vals, binary.LittleEndian.Uint16(raw[i+8:]))
		}
	}
	return nil
}

// emitStore streams one store covering global shards [shardLo, shardHi)
// as range splitIdx of splitN (1×[0] is the full store) to path,
// atomically.
func (e *emitter) emitStore(shardLo, shardHi, splitN, splitIdx int, path string) error {
	b := e.b
	levels := b.man.Levels
	localCounts := make([]int64, len(levels))
	globalCounts := make([]int64, len(levels))
	var localTotal, globalTotal int64
	for c := range levels {
		globalCounts[c] = levels[c].Entries
		globalTotal += levels[c].Entries
		for s := shardLo; s < shardHi; s++ {
			localCounts[c] += int64(e.srt[c].counts[s])
		}
		localTotal += localCounts[c]
	}
	perShard := hashtab.FrozenSlotsPerShard(e.maxShardEntries(shardLo, shardHi))

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

	// Workers place shards in parallel; the writer takes them in shard
	// order.
	err = fanOutOrdered(len(e.bufs), shardHi-shardLo, func(wi, i int) error {
		eb := e.buf(wi)
		if err := e.gatherShard(eb, shardLo+i); err != nil {
			return err
		}
		slotKeys, slotVals := eb.slotKeys[:perShard], eb.slotVals[:perShard]
		clear(slotKeys)
		clear(slotVals)
		hashtab.PlaceShardCanonical(eb.keys, eb.vals, slotKeys, slotVals, &eb.place)
		return nil
	}, func(wi, _ int) error {
		eb := e.bufs[wi]
		return w.WriteShard(eb.slotKeys[:perShard], eb.slotVals[:perShard])
	})
	if err != nil {
		return err
	}

	pv, releasePV, err := w.ProbeView()
	if err != nil {
		return err
	}
	if err := e.appendIndex(w, pv, shardLo, shardHi, splitN > 1); err != nil {
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

// indexChunk is one item of index resolution: n .seq records of a level
// from position first.
type indexChunk struct {
	level int
	first int64
	n     int
}

// appendIndex resolves every level's .seq keys that fall in the store's
// shard range to their slots through the probe view — read-only, so the
// workers resolve chunks in parallel — and appends the slots in chunk
// order. The per-level index is thereby in the exact order the
// sequential in-memory build would have recorded, and for splits each
// entry's global level position rides along.
func (e *emitter) appendIndex(w *tablesio.StreamWriter, pv *hashtab.FrozenTable, shardLo, shardHi int, split bool) error {
	var chunks []indexChunk
	for c, lvm := range e.b.man.Levels {
		for first := int64(0); first < lvm.Entries; first += idxChunk {
			chunks = append(chunks, indexChunk{c, first, int(min(idxChunk, lvm.Entries-first))})
		}
	}
	return fanOutOrdered(len(e.bufs), len(chunks), func(wi, i int) error {
		ch, eb := chunks[i], e.buf(wi)
		raw := eb.seqRaw[:ch.n*seqRecordBytes]
		if _, err := e.seq[ch.level].ReadAt(raw, ch.first*seqRecordBytes); err != nil {
			return fmt.Errorf("extbuild: level %d index: %w", ch.level, err)
		}
		e.b.spillR.Add(int64(len(raw)))
		eb.idx, eb.gpos = eb.idx[:0], eb.gpos[:0]
		for j := range ch.n {
			key := getSeqRecord(raw[j*seqRecordBytes:])
			shard := int(hashtab.Hash64Shift(key) >> e.b.shardShift)
			if shard < shardLo || shard >= shardHi {
				continue
			}
			slot, ok := pv.SlotOf(key)
			if !ok {
				return fmt.Errorf("extbuild: level %d key %#x missing from emitted store", ch.level, key)
			}
			eb.idx = append(eb.idx, slot)
			if split {
				eb.gpos = append(eb.gpos, uint32(ch.first+int64(j)))
			}
		}
		return nil
	}, func(wi, _ int) error {
		eb := e.bufs[wi]
		if len(eb.idx) == 0 {
			return nil
		}
		if err := w.AppendIndex(eb.idx); err != nil {
			return err
		}
		if split {
			return w.AppendGlobalPos(eb.gpos)
		}
		return nil
	})
}
