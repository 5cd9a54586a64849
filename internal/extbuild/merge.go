package extbuild

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/tablesio"
)

// runHeap orders open run readers by their lookahead record's
// (key, seq) — within one shard that is the global candidate order, so
// popping the heap replays the level's candidates exactly as the
// sequential in-memory expansion would first encounter each key.
type runHeap []*runReader

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	if h[i].key != h[j].key {
		return h[i].key < h[j].key
	}
	return h[i].seq < h[j].seq
}
func (h runHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(x any)   { *h = append(*h, x.(*runReader)) }
func (h *runHeap) Pop() any     { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// mergeLevel merge-dedups level c's sealed spill runs against all prior
// levels and publishes the level's .srt/.seq artifacts, advancing the
// checkpoint. The merge walks shards in ascending order with every
// input positioned at the same shard, so it is one sequential pass over
// each file — and its output bytes depend only on the candidate set,
// never on the slab partition or worker schedule that produced the
// runs.
func (b *builder) mergeLevel(c int, p levelPlan) error {
	// Expansion left exactly one sealed run per slab (the manifest
	// validator refuses out-of-range or repeated slabs); take them in
	// slab order.
	paths := make([]string, len(b.man.Runs))
	var levelCands int64
	for _, r := range b.man.Runs {
		paths[r.Slab] = filepath.Join(b.dir, r.File.Name)
		levelCands += r.Candidates
	}
	paths, consPaths, err := b.consolidateRuns(c, paths)
	if err != nil {
		return err
	}
	defer func() {
		for _, p := range consPaths {
			os.Remove(p)
		}
	}()

	readers := make([]*runReader, 0, len(paths))
	closeAll := func() {
		for _, r := range readers {
			r.close()
		}
	}
	charge := int64(len(paths)) * int64(b.fanBuf)
	b.mem.add(charge)
	defer b.mem.release(charge)
	for _, path := range paths {
		r, err := openRunReader(path, b.shards, b.fanBuf, &b.spillR)
		if err != nil {
			closeAll()
			return err
		}
		readers = append(readers, r)
	}
	defer closeAll()

	// Prior-level inputs: either the in-memory probe table, or one
	// sequential reader per completed level for the disk merge-join.
	var priors []*srtReader
	if b.prior == nil {
		pCharge := int64(c) * int64(b.fanBuf)
		b.mem.add(pCharge)
		defer b.mem.release(pCharge)
		for _, lv := range b.man.Levels {
			r, err := openSrtReader(filepath.Join(b.dir, lv.Srt.Name), b.shards, b.fanBuf, &b.spillR)
			if err != nil {
				for _, pr := range priors {
					pr.close()
				}
				return err
			}
			priors = append(priors, r)
		}
		defer func() {
			for _, pr := range priors {
				pr.close()
			}
		}()
	}

	srtAF, err := newAtomicFile(b.dir, srtName(c))
	if err != nil {
		return err
	}
	seqS := b.newSeqSorter(c)
	defer seqS.drop()

	var (
		srtCounts = make([]uint64, b.shards)
		entries   int64
		chunk     = newProbeChunk(b.probeChunk)
		h         runHeap
	)
	b.mem.add(int64(b.probeChunk) * (8 + 8 + 2 + 2 + 1))
	defer b.mem.release(int64(b.probeChunk) * (8 + 8 + 2 + 2 + 1))

	flush := func(s int) error {
		if chunk.len() == 0 {
			return nil
		}
		chunk.present = chunk.present[:len(chunk.keys)]
		if b.prior != nil {
			b.prior.ContainsBatchSorted(chunk.keys, chunk.present)
		} else if err := joinPresent(chunk, priors); err != nil {
			return err
		}
		survK, survV := chunk.keys[:0:len(chunk.keys)], chunk.vals[:0:len(chunk.vals)]
		var rec [srtRecordBytes]byte
		for i, key := range chunk.keys {
			if chunk.present[i] {
				continue
			}
			putSrtRecord(rec[:], key, chunk.vals[i])
			if _, err := srtAF.Write(rec[:]); err != nil {
				return err
			}
			srtCounts[s]++
			entries++
			if err := seqS.push(chunk.seqs[i], key); err != nil {
				return err
			}
			survK = append(survK, key)
			survV = append(survV, chunk.vals[i])
		}
		// Current-level survivors join the probe table immediately;
		// they can never collide with this level's remaining candidates
		// (duplicate keys were already folded by the heap dedup), so
		// this only pre-loads the table for the NEXT level.
		if b.prior != nil && len(survK) > 0 {
			b.prior.InsertBatch(survK, survV, chunk.ins[:len(survK)])
		}
		chunk.reset()
		return nil
	}

	for s := 0; s < b.shards; s++ {
		h = h[:0]
		for _, r := range readers {
			if err := r.enterShard(s); err != nil {
				srtAF.abort()
				return err
			}
			if r.ok {
				h = append(h, r)
			}
		}
		heap.Init(&h)
		for _, pr := range priors {
			if err := pr.enterShard(s); err != nil {
				srtAF.abort()
				return err
			}
		}
		var prevKey uint64
		for len(h) > 0 {
			r := h[0]
			key, val, seq := r.key, r.val, r.seq
			if err := r.advance(); err != nil {
				srtAF.abort()
				return err
			}
			if r.ok {
				heap.Fix(&h, 0)
			} else {
				heap.Pop(&h)
			}
			if key == prevKey {
				continue
			}
			prevKey = key
			chunk.add(key, val, seq)
			if chunk.full() {
				if err := flush(s); err != nil {
					srtAF.abort()
					return err
				}
			}
		}
		if err := flush(s); err != nil {
			srtAF.abort()
			return err
		}
	}

	if err := writeCountsTrailer(srtAF, srtCounts); err != nil {
		srtAF.abort()
		return err
	}
	srtMF, err := srtAF.commit()
	if err != nil {
		return err
	}
	seqAF, err := newAtomicFile(b.dir, seqName(c))
	if err != nil {
		return err
	}
	if err := seqS.finish(seqAF); err != nil {
		seqAF.abort()
		return err
	}
	seqMF, err := seqAF.commit()
	if err != nil {
		return err
	}

	b.manMu.Lock()
	b.man.Levels = append(b.man.Levels, tablesio.ManifestLevel{
		Level: c, Entries: entries, Srt: srtMF, Seq: seqMF,
	})
	oldRuns := b.man.Runs
	b.man.Runs = nil
	b.man.LevelSlabs = 0
	b.man.LevelReps = 0
	err = b.writeManifest()
	b.manMu.Unlock()
	if err != nil {
		return err
	}
	for _, r := range oldRuns {
		os.Remove(filepath.Join(b.dir, r.File.Name))
	}
	b.notePriorSize()
	b.progress(ProgressEvent{
		Phase: "merge", Level: c,
		FrontierReps: p.totalReps,
		Candidates:   levelCands,
		Survivors:    entries,
		Done:         true,
	})
	return nil
}

// probeChunk buffers deduped candidates of one shard between prior-level
// presence checks, bounding merge memory regardless of shard size.
type probeChunk struct {
	keys    []uint64
	vals    []uint16
	seqs    []uint64
	present []bool
	ins     []bool
	cap     int
}

func newProbeChunk(n int) *probeChunk {
	return &probeChunk{
		keys:    make([]uint64, 0, n),
		vals:    make([]uint16, 0, n),
		seqs:    make([]uint64, 0, n),
		present: make([]bool, n),
		ins:     make([]bool, n),
		cap:     n,
	}
}

func (p *probeChunk) add(key uint64, val uint16, seq uint64) {
	p.keys = append(p.keys, key)
	p.vals = append(p.vals, val)
	p.seqs = append(p.seqs, seq)
}

func (p *probeChunk) len() int   { return len(p.keys) }
func (p *probeChunk) full() bool { return len(p.keys) >= p.cap }
func (p *probeChunk) reset() {
	p.present = p.present[:cap(p.present)]
	for i := range p.present {
		p.present[i] = false
	}
	p.keys, p.vals, p.seqs = p.keys[:0], p.vals[:0], p.seqs[:0]
	p.present = p.present[:0]
}

// joinPresent marks which chunk keys exist in any prior level by
// merge-joining against the levels' sorted shard segments: chunk keys
// ascend, each reader's segment ascends, so every reader advances
// monotonically — the disk dedup path costs one sequential pass over
// the priors per level built. A read error aborts the merge: treating
// a prior as exhausted would mark its keys absent and re-emit them
// into the new level, publishing a store with duplicate keys.
func joinPresent(chunk *probeChunk, priors []*srtReader) error {
	chunk.present = chunk.present[:len(chunk.keys)]
	for i, key := range chunk.keys {
		hit := false
		for _, pr := range priors {
			for pr.ok && pr.key < key {
				if err := pr.advance(); err != nil {
					return err
				}
			}
			if pr.ok && pr.key == key {
				hit = true
			}
		}
		chunk.present[i] = hit
	}
	return nil
}

// consolidateRuns reduces the merge fan-in below maxFanIn by merging
// batches of runs into consolidated runs (same format, same dedup
// rule), possibly over several passes. The original sealed runs are
// never deleted here — they belong to the checkpoint until the level
// publishes; consolidated files are transient and returned for cleanup.
func (b *builder) consolidateRuns(c int, paths []string) (final, transient []string, err error) {
	pass := 0
	for len(paths) > b.maxFanIn {
		var next []string
		for i := 0; i < len(paths); i += b.maxFanIn {
			batch := paths[i:min(i+b.maxFanIn, len(paths))]
			if len(batch) == 1 {
				next = append(next, batch[0])
				continue
			}
			out := filepath.Join(b.dir, consName(c, pass, i/b.maxFanIn))
			if err := b.mergeRunsToRun(batch, out); err != nil {
				for _, t := range transient {
					os.Remove(t)
				}
				return nil, nil, err
			}
			transient = append(transient, out)
			next = append(next, out)
		}
		paths = next
		pass++
	}
	return paths, transient, nil
}

// mergeRunsToRun merges a batch of runs into one, keeping the
// minimum-sequence candidate per key (the batch-local minimum; the
// final merge takes the minimum of batch minima, which is the global
// minimum).
func (b *builder) mergeRunsToRun(paths []string, outPath string) error {
	charge := int64(len(paths)+1) * int64(b.fanBuf)
	b.mem.add(charge)
	defer b.mem.release(charge)
	readers := make([]*runReader, 0, len(paths))
	defer func() {
		for _, r := range readers {
			r.close()
		}
	}()
	for _, p := range paths {
		r, err := openRunReader(p, b.shards, b.fanBuf, &b.spillR)
		if err != nil {
			return err
		}
		readers = append(readers, r)
	}
	af, err := newAtomicFile(filepath.Dir(outPath), filepath.Base(outPath))
	if err != nil {
		return err
	}
	counts := make([]uint64, b.shards)
	var h runHeap
	var rec [runRecordBytes]byte
	for s := 0; s < b.shards; s++ {
		h = h[:0]
		for _, r := range readers {
			if err := r.enterShard(s); err != nil {
				af.abort()
				return err
			}
			if r.ok {
				h = append(h, r)
			}
		}
		heap.Init(&h)
		var prevKey uint64
		for len(h) > 0 {
			r := h[0]
			key, val, seq := r.key, r.val, r.seq
			if err := r.advance(); err != nil {
				af.abort()
				return err
			}
			if r.ok {
				heap.Fix(&h, 0)
			} else {
				heap.Pop(&h)
			}
			if key == prevKey {
				continue
			}
			prevKey = key
			binary.LittleEndian.PutUint64(rec[0:], key)
			binary.LittleEndian.PutUint16(rec[8:], val)
			binary.LittleEndian.PutUint64(rec[10:], seq)
			if _, err := af.Write(rec[:]); err != nil {
				af.abort()
				return err
			}
			counts[s]++
		}
	}
	if err := writeCountsTrailer(af, counts); err != nil {
		af.abort()
		return err
	}
	mf, err := af.commit()
	if err != nil {
		return err
	}
	b.spillW.Add(mf.Size)
	return nil
}

// seqPair is one survivor in the external sequence sort: the key plus
// the sequence number that fixes its discovery-order position.
type seqPair struct{ seq, key uint64 }

const seqPairBytes = 16

// seqSorter restores discovery order for a level's survivors: the merge
// produces them in (shard, key) order, the .seq artifact — and with it
// the store's per-level index — needs ascending sequence order. Under
// budget it is one in-memory radix sort; over budget it spills sorted
// runs and k-way merges them. The budget charge covers the pair buffer
// and the equally long radix scratch.
type seqSorter struct {
	b      *builder
	level  int
	pairs  []seqPair
	tmp    []seqPair
	limit  int
	spills []string
}

func (b *builder) newSeqSorter(level int) *seqSorter {
	s := &seqSorter{b: b, level: level, limit: b.seqBufPairs}
	b.mem.add(2 * int64(s.limit) * seqPairBytes)
	return s
}

// sortPairs radix-sorts the buffered pairs by seq, growing the scratch
// buffer to the largest batch seen (at most limit pairs).
func (s *seqSorter) sortPairs() {
	if len(s.tmp) < len(s.pairs) {
		s.tmp = make([]seqPair, len(s.pairs))
	}
	sorted, spare := radixSortSeqPairs(s.pairs, s.tmp)
	s.pairs, s.tmp = sorted, spare[:cap(spare)]
}

func (s *seqSorter) push(seq, key uint64) error {
	s.pairs = append(s.pairs, seqPair{seq, key})
	if len(s.pairs) >= s.limit {
		return s.spill()
	}
	return nil
}

func (s *seqSorter) spill() error {
	if len(s.pairs) == 0 {
		return nil
	}
	s.sortPairs()
	name := fmt.Sprintf("seqspill_%d_%d", s.level, len(s.spills))
	path := filepath.Join(s.b.dir, name)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<18)
	var rec [seqPairBytes]byte
	for _, p := range s.pairs {
		binary.LittleEndian.PutUint64(rec[0:], p.seq)
		binary.LittleEndian.PutUint64(rec[8:], p.key)
		if _, err := bw.Write(rec[:]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	s.b.spillW.Add(int64(len(s.pairs)) * seqPairBytes)
	s.spills = append(s.spills, path)
	s.pairs = s.pairs[:0]
	return nil
}

// finish writes the level's keys in ascending sequence order to w.
func (s *seqSorter) finish(w io.Writer) error {
	if len(s.spills) == 0 {
		s.sortPairs()
		var rec [seqRecordBytes]byte
		for _, p := range s.pairs {
			putSeqRecord(rec[:], p.key)
			if _, err := w.Write(rec[:]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := s.spill(); err != nil {
		return err
	}
	// Cap the merge fan-in by pre-merging batches of spill files.
	for len(s.spills) > s.b.maxFanIn {
		var next []string
		for i := 0; i < len(s.spills); i += s.b.maxFanIn {
			batch := s.spills[i:min(i+s.b.maxFanIn, len(s.spills))]
			if len(batch) == 1 {
				next = append(next, batch[0])
				continue
			}
			out, err := s.preMerge(batch, batch[0]+"m")
			if err != nil {
				return err
			}
			next = append(next, out)
		}
		s.spills = next
	}
	var rec [seqRecordBytes]byte
	return s.mergeSpills(s.spills, func(p seqPair) error {
		putSeqRecord(rec[:], p.key)
		_, err := w.Write(rec[:])
		return err
	})
}

// drop releases the sorter's budget charge and removes any spill files.
func (s *seqSorter) drop() {
	s.b.mem.release(2 * int64(s.limit) * seqPairBytes)
	for _, p := range s.spills {
		os.Remove(p)
	}
}

// seqSpillReader streams one sorted spill file of (seq, key) pairs.
type seqSpillReader struct {
	f    *os.File
	br   *bufio.Reader
	cur  seqPair
	ok   bool
	read *int64
}

func openSeqSpill(path string, bufBytes int, read *int64) (*seqSpillReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &seqSpillReader{f: f, br: bufio.NewReaderSize(f, bufBytes), read: read}
	if err := r.advance(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func (r *seqSpillReader) advance() error {
	var rec [seqPairBytes]byte
	_, err := io.ReadFull(r.br, rec[:])
	if err == io.EOF {
		r.ok = false
		return nil
	}
	if err != nil {
		return fmt.Errorf("extbuild: truncated seq spill %s: %w", r.f.Name(), err)
	}
	r.cur = seqPair{binary.LittleEndian.Uint64(rec[0:]), binary.LittleEndian.Uint64(rec[8:])}
	r.ok = true
	if r.read != nil {
		*r.read += seqPairBytes
	}
	return nil
}

// seqHeap orders spill readers by current sequence number.
type seqHeap []*seqSpillReader

func (h seqHeap) Len() int           { return len(h) }
func (h seqHeap) Less(i, j int) bool { return h[i].cur.seq < h[j].cur.seq }
func (h seqHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *seqHeap) Push(x any)        { *h = append(*h, x.(*seqSpillReader)) }
func (h *seqHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// mergeSpills k-way merges sorted spill files, emitting pairs in
// ascending sequence order.
func (s *seqSorter) mergeSpills(paths []string, emit func(seqPair) error) error {
	charge := int64(len(paths)) * int64(s.b.fanBuf)
	s.b.mem.add(charge)
	defer s.b.mem.release(charge)
	var h seqHeap
	defer func() {
		for _, r := range h {
			r.f.Close()
		}
	}()
	for _, p := range paths {
		r, err := openSeqSpill(p, s.b.fanBuf, &s.b.spillR)
		if err != nil {
			return err
		}
		if r.ok {
			h = append(h, r)
		} else {
			r.f.Close()
		}
	}
	heap.Init(&h)
	for len(h) > 0 {
		r := h[0]
		if err := emit(r.cur); err != nil {
			return err
		}
		if err := r.advance(); err != nil {
			return err
		}
		if r.ok {
			heap.Fix(&h, 0)
		} else {
			r.f.Close()
			heap.Pop(&h)
			// Keep the closed reader out of the deferred close.
		}
	}
	return nil
}

// preMerge merges a batch of spill files into one larger sorted spill,
// the fan-in-capping pass of the external sequence sort.
func (s *seqSorter) preMerge(batch []string, outPath string) (string, error) {
	f, err := os.Create(outPath)
	if err != nil {
		return "", err
	}
	bw := bufio.NewWriterSize(f, 1<<18)
	var rec [seqPairBytes]byte
	err = s.mergeSpills(batch, func(p seqPair) error {
		binary.LittleEndian.PutUint64(rec[0:], p.seq)
		binary.LittleEndian.PutUint64(rec[8:], p.key)
		s.b.spillW.Add(seqPairBytes)
		_, err := bw.Write(rec[:])
		return err
	})
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(outPath)
		return "", err
	}
	for _, p := range batch {
		os.Remove(p)
	}
	return outPath, nil
}
