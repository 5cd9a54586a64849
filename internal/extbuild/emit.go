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

// emit writes the full store straight off the level artifacts, then
// cuts the SplitN range files from it with tablesio.SaveSplitFiles, the
// one split writer, which checks the store once for all of them. No
// in-memory table is ever built. Workers gather each shard's entries
// from the .srt segments (one ReadAt per level), lay them out
// canonically, and hand them to the StreamWriter in shard order; the
// per-level index is then resolved by probing the just-written file
// through the writer's read-only probe view, the workers splitting the
// .seq files into chunks and appending the resolved slots in discovery
// order. Byte-identity with
// tablesio.SaveFile holds because every geometry decision (shard
// count, slots per shard, placement order, level order) is the same
// pure function of the entry set that hashtab.Compact applies. Without
// an OutPath the full store is a temporary file in the work directory,
// removed once its splits are cut.
func (b *builder) emit() error {
	if b.o.OutPath == "" && b.o.SplitN <= 1 {
		return nil
	}
	if err := b.failPoint("emit", b.o.K, -1); err != nil {
		return err
	}
	b.progress(ProgressEvent{Phase: "emit", Level: b.o.K})

	full := b.o.OutPath
	if full == "" {
		full = filepath.Join(b.dir, ".extbuild-store")
		defer os.Remove(full)
	}
	if err := b.emitStore(full); err != nil {
		return err
	}
	if b.o.SplitN > 1 {
		if err := tablesio.SaveSplitFiles(full, b.o.SplitN, b.o.SplitPath); err != nil {
			return err
		}
	}
	b.progress(ProgressEvent{Phase: "emit", Level: b.o.K, Done: true})
	return nil
}

// emitter holds the open level artifacts and the workspace buffers
// the full store is emitted through.
type emitter struct {
	b    *builder
	srt  []*segFile
	seq  []*os.File
	bufs []emitBufs
	// Sized for the fullest shard of the table.
	maxPerShard, perShard int
	// wbuf is the StreamWriter's encoding buffer; commits run one at a
	// time.
	wbuf []byte
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
	for s := 0; s < b.shards; s++ {
		n := 0
		for _, lf := range e.srt {
			n += int(lf.counts[s])
		}
		e.maxPerShard = max(e.maxPerShard, n)
	}
	e.perShard = hashtab.FrozenSlotsPerShard(e.maxPerShard)
	// The emission workers' buffers may take half the budget (the probe
	// table is gone by now), so a table whose fullest shard is a large
	// share of the budget emits on fewer workers.
	var one carver
	e.carveBufs(&one, &emitBufs{})
	e.bufs = make([]emitBufs, clamp64(b.budget/2/one.bytes(), 1, int64(b.workers)))
	if err := b.ws.carve(func(c *carver) {
		e.wbuf = view[byte](c, e.perShard*8)
		for w := range e.bufs {
			e.carveBufs(c, &e.bufs[w])
		}
	}); err != nil {
		e.close()
		return nil, err
	}
	return e, nil
}

func (e *emitter) close() {
	closeSegFiles(e.srt)
	for _, f := range e.seq {
		f.Close()
	}
}

// carveBufs carves one worker's buffers from the workspace.
func (e *emitter) carveBufs(c *carver, eb *emitBufs) {
	n, slots := e.maxPerShard, e.perShard
	*eb = emitBufs{
		keys:     view[uint64](c, n)[:0],
		vals:     view[uint16](c, n)[:0],
		raw:      view[byte](c, n*srtRecordBytes),
		slotKeys: view[uint64](c, slots),
		slotVals: view[uint16](c, slots),
		place:    hashtab.PlaceScratchOf(view[uint32](c, slots+1), view[uint64](c, n), view[uint16](c, n)),
		seqRaw:   view[byte](c, idxChunk*seqRecordBytes),
		idx:      view[uint32](c, idxChunk)[:0],
	}
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

// emitStore streams the full store to path, atomically.
func (b *builder) emitStore(path string) error {
	e, err := b.newEmitter()
	if err != nil {
		return err
	}
	defer e.close()
	g := tablesio.StreamGeometry{
		Alphabet:      b.a,
		MaxCost:       b.o.K,
		Reduced:       b.reduced,
		ShardCount:    b.shards,
		SlotsPerShard: e.perShard,
		LevelCounts:   make([]int64, len(b.man.Levels)),
	}
	for c, lv := range b.man.Levels {
		g.LevelCounts[c] = lv.Entries
		g.EntryCount += lv.Entries
	}

	return tablesio.PublishFile(path, func(f *os.File) error {
		w, err := tablesio.NewStreamWriter(f, g)
		if err != nil {
			return err
		}
		w.SetBuffer(e.wbuf)
		// Workers place shards in parallel; the writer takes them in
		// shard order.
		err = fanOutOrdered(len(e.bufs), b.shards, func(wi, s int) error {
			eb := &e.bufs[wi]
			if err := e.gatherShard(eb, s); err != nil {
				return err
			}
			clear(eb.slotKeys)
			clear(eb.slotVals)
			hashtab.PlaceShardCanonical(eb.keys, eb.vals, eb.slotKeys, eb.slotVals, &eb.place)
			return nil
		}, func(wi, _ int) error {
			return w.WriteShard(e.bufs[wi].slotKeys, e.bufs[wi].slotVals)
		})
		if err != nil {
			return err
		}
		pv, releasePV, err := w.ProbeView()
		if err != nil {
			return err
		}
		if err := e.appendIndex(w, pv); err != nil {
			releasePV()
			return err
		}
		if err := releasePV(); err != nil {
			return err
		}
		return w.Finalize()
	})
}

// indexChunk is one item of index resolution: n .seq records of a level
// from position first.
type indexChunk struct {
	level int
	first int64
	n     int
}

// appendIndex resolves every level's .seq keys to their slots through
// the probe view — read-only, so the workers resolve chunks in
// parallel — and appends the slots in chunk order. The per-level index
// is thereby in the exact order the sequential bfs.Search records.
func (e *emitter) appendIndex(w *tablesio.StreamWriter, pv *hashtab.FrozenTable) error {
	var chunks []indexChunk
	for c, lvm := range e.b.man.Levels {
		for first := int64(0); first < lvm.Entries; first += idxChunk {
			chunks = append(chunks, indexChunk{c, first, int(min(idxChunk, lvm.Entries-first))})
		}
	}
	return fanOutOrdered(len(e.bufs), len(chunks), func(wi, i int) error {
		ch, eb := chunks[i], &e.bufs[wi]
		raw := eb.seqRaw[:ch.n*seqRecordBytes]
		if _, err := e.seq[ch.level].ReadAt(raw, ch.first*seqRecordBytes); err != nil {
			return fmt.Errorf("extbuild: level %d index: %w", ch.level, err)
		}
		e.b.spillR.Add(int64(len(raw)))
		eb.idx = eb.idx[:0]
		for j := range ch.n {
			key := getSeqRecord(raw[j*seqRecordBytes:])
			slot, ok := pv.SlotOf(key)
			if !ok {
				return fmt.Errorf("extbuild: level %d key %#x missing from emitted store", ch.level, key)
			}
			eb.idx = append(eb.idx, slot)
		}
		return nil
	}, func(wi, _ int) error {
		return w.AppendIndex(e.bufs[wi].idx)
	})
}
