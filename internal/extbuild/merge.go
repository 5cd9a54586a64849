package extbuild

import (
	"bufio"
	"container/heap"
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"sync"

	"repro/internal/hashtab"
	"repro/internal/tablesio"
)

// runHeap is a binary min-heap of a shard's run readers ordered by
// their lookahead record's (hash, seq). Within one shard that is the
// global candidate order, so popping the heap replays the level's
// candidates exactly as the sequential in-memory expansion would first
// encounter each key. It is typed, so a comparison is a direct call,
// not container/heap's interface dispatch.
type runHeap []*segReader

func (h runHeap) less(i, j int) bool {
	if h[i].hash != h[j].hash {
		return h[i].hash < h[j].hash
	}
	return h[i].seq < h[j].seq
}

// down restores the heap order below position i.
func (h runHeap) down(i int) {
	for {
		m := 2*i + 1
		if m >= len(h) {
			return
		}
		if r := m + 1; r < len(h) && h.less(r, m) {
			m = r
		}
		if !h.less(m, i) {
			return
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
}

func (h runHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i)
	}
}

// popTop removes the minimum.
func (h *runHeap) popTop() {
	n := len(*h) - 1
	(*h)[0] = (*h)[n]
	*h = (*h)[:n]
	h.down(0)
}

// runMerge is one merge worker's k-way merge over a set of run files: a
// reader per file and the heap ordering them.
type runMerge struct {
	files   []*segFile
	readers []*segReader
	h       runHeap
}

func newRunMerge(files []*segFile, bufBytes int) *runMerge {
	m := &runMerge{files: files, readers: make([]*segReader, len(files))}
	for i := range files {
		m.readers[i] = newSegReader(bufBytes)
	}
	return m
}

// merge replays shard s's candidates from every run in (hash, seq) order
// and calls emit with the first — minimum-sequence — candidate of each
// key. It returns the bytes read.
func (m *runMerge) merge(s int, emit func(key uint64, val uint16, seq uint64) error) (int64, error) {
	m.h = m.h[:0]
	for i, r := range m.readers {
		if err := r.enter(m.files[i], s); err != nil {
			return 0, err
		}
		if r.ok {
			m.h = append(m.h, r)
		}
	}
	m.h.init()
	var prevKey uint64
	for len(m.h) > 0 {
		r := m.h[0]
		key, val, seq := r.key, r.val, r.seq
		if err := r.advance(); err != nil {
			return 0, err
		}
		if r.ok {
			m.h.down(0)
		} else {
			m.h.popTop()
		}
		if key == prevKey {
			continue
		}
		prevKey = key
		if err := emit(key, val, seq); err != nil {
			return 0, err
		}
	}
	var read int64
	for _, r := range m.readers {
		read += r.takeRead()
	}
	return read, nil
}

// shardFunc merges one hash shard, streaming its output records to out
// and returning how many it wrote.
type shardFunc func(s int, out io.Writer) (records uint64, err error)

// mergeSharded is the shard-parallel skeleton of every merge. Up to
// b.workers goroutines, each set up once by newWorker and charged
// workerBytes plus its part-file write buffer, take hash shards off a
// shared counter and stream shard s's records to the transient part
// file part_<tag>_<s>. The parts are then concatenated into af in shard
// order and the per-shard counts trailer appended: the bytes one
// ascending pass over the shards would have written, whatever the
// schedule. No shard's output is ever held whole in memory.
func (b *builder) mergeSharded(af *atomicFile, tag string, recBytes int, workerBytes int64, newWorker func() shardFunc) ([]uint64, error) {
	counts := make([]uint64, b.shards)
	part := func(s int) string { return filepath.Join(b.dir, partName(tag, s)) }
	err := fanOut(b.workers, b.shards, func(_ int, next func() (int, bool)) error {
		charge := workerBytes + int64(b.fanBuf)
		b.mem.add(charge)
		defer b.mem.release(charge)
		merge := newWorker()
		bw := bufio.NewWriterSize(nil, b.fanBuf)
		for s, ok := next(); ok; s, ok = next() {
			f, err := os.Create(part(s))
			if err != nil {
				return err
			}
			bw.Reset(f)
			n, err := merge(s, bw)
			if err == nil {
				err = bw.Flush()
			}
			if cerr := f.Close(); err == nil {
				err = cerr
			}
			if err != nil {
				return err
			}
			counts[s] = n
			b.spillW.Add(int64(n) * int64(recBytes))
		}
		return nil
	})
	if err != nil {
		for s := range b.shards {
			os.Remove(part(s))
		}
		return nil, err
	}
	for s := range b.shards {
		if err := b.appendPart(af, part(s)); err != nil {
			for ; s < b.shards; s++ {
				os.Remove(part(s))
			}
			return nil, err
		}
	}
	return counts, writeCountsTrailer(af, counts)
}

// appendPart copies one part file onto w and removes it.
func (b *builder) appendPart(w io.Writer, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	n, err := io.Copy(w, f)
	f.Close()
	os.Remove(path)
	b.spillR.Add(n)
	return err
}

// mergeLevel merge-dedups level c's sealed spill runs against all prior
// levels and publishes the level's .srt/.seq artifacts, advancing the
// checkpoint. The merge is shard-parallel (mergeSharded): every input
// is read one shard segment at a time, so the .srt bytes depend only on
// the candidate set, never on the slab partition or worker schedule
// that produced the runs or merged them.
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
	runs, err := openSegFiles(paths, b.shards, runRecordBytes)
	if err != nil {
		return err
	}
	defer closeSegFiles(runs)

	// Prior-level inputs: either the in-memory probe table, or every
	// completed level's .srt for the disk merge-join.
	var priors []*segFile
	if b.prior == nil {
		lp := make([]string, len(b.man.Levels))
		for i, lv := range b.man.Levels {
			lp[i] = filepath.Join(b.dir, lv.Srt.Name)
		}
		if priors, err = openSegFiles(lp, b.shards, srtRecordBytes); err != nil {
			return err
		}
		defer closeSegFiles(priors)
	}

	seqS := b.newSeqSorter(c, levelCands)
	defer seqS.drop()
	srtAF, err := newAtomicFile(b.dir, srtName(c))
	if err != nil {
		return err
	}
	workerBytes := int64(len(runs)+len(priors))*int64(b.fanBuf) + int64(b.probeChunk)*probeEntryBytes
	counts, err := b.mergeSharded(srtAF, strconv.Itoa(c), srtRecordBytes, workerBytes, func() shardFunc {
		m := &levelMerger{
			b:          b,
			runs:       newRunMerge(runs, b.fanBuf),
			priorFiles: priors,
			chunk:      newProbeChunk(b.probeChunk),
			pairs:      make([]seqPair, 0, b.probeChunk),
			seqS:       seqS,
			// Survivors pre-load the probe table for the next level;
			// the last level has none.
			insert: b.prior != nil && c < b.o.K,
		}
		for range priors {
			m.priors = append(m.priors, newSegReader(b.fanBuf))
		}
		return m.mergeShard
	})
	if err != nil {
		srtAF.abort()
		return err
	}
	srtMF, err := srtAF.commit()
	if err != nil {
		return err
	}
	var entries int64
	for _, n := range counts {
		entries += int64(n)
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

// levelMerger is one mergeLevel worker: its run merge, its readers of
// the prior levels' segments (disk merge-join only), and the probe chunk
// and survivor pairs it hands on a batch at a time.
type levelMerger struct {
	b          *builder
	runs       *runMerge
	priorFiles []*segFile
	priors     []*segReader
	chunk      *probeChunk
	pairs      []seqPair
	seqS       *seqSorter
	insert     bool
	rec        [srtRecordBytes]byte
}

// mergeShard merges shard s's candidates, drops every key a prior level
// holds, and writes the survivors' .srt records to out.
func (m *levelMerger) mergeShard(s int, out io.Writer) (uint64, error) {
	for i, pr := range m.priors {
		if err := pr.enter(m.priorFiles[i], s); err != nil {
			return 0, err
		}
	}
	var n uint64
	read, err := m.runs.merge(s, func(key uint64, val uint16, seq uint64) error {
		m.chunk.add(key, val, seq)
		if m.chunk.full() {
			return m.flush(out, &n)
		}
		return nil
	})
	if err == nil {
		err = m.flush(out, &n)
	}
	for _, pr := range m.priors {
		read += pr.takeRead()
	}
	m.b.spillR.Add(read)
	return n, err
}

// flush probes the chunk against the prior levels and passes its
// survivors on: records to out, (seq, key) pairs to the sequence
// sorter, and keys to the probe table when the next level needs them.
func (m *levelMerger) flush(out io.Writer, n *uint64) error {
	chunk := m.chunk
	if chunk.len() == 0 {
		return nil
	}
	chunk.present = chunk.present[:len(chunk.keys)]
	if m.b.prior != nil {
		m.b.prior.ContainsBatchSorted(chunk.keys, chunk.present)
	} else if err := joinPresent(chunk, m.priors); err != nil {
		return err
	}
	survK, survV := chunk.keys[:0:len(chunk.keys)], chunk.vals[:0:len(chunk.vals)]
	m.pairs = m.pairs[:0]
	for i, key := range chunk.keys {
		if chunk.present[i] {
			continue
		}
		putSrtRecord(m.rec[:], key, chunk.vals[i])
		if _, err := out.Write(m.rec[:]); err != nil {
			return err
		}
		*n++
		m.pairs = append(m.pairs, seqPair{chunk.seqs[i], key})
		survK = append(survK, key)
		survV = append(survV, chunk.vals[i])
	}
	if err := m.seqS.pushBatch(m.pairs); err != nil {
		return err
	}
	// Survivors can never collide with this level's remaining
	// candidates (the heap dedup already folded duplicate keys), so the
	// insert only pre-loads the table for the next level.
	if m.insert && len(survK) > 0 {
		m.b.prior.InsertBatch(survK, survV, chunk.ins[:len(survK)])
	}
	chunk.reset()
	return nil
}

// probeEntryBytes is the budget charge per probe-chunk slot: key, val,
// seq, the two flag arrays, and the survivor's (seq, key) pair.
const probeEntryBytes = 8 + 2 + 8 + 1 + 1 + seqPairBytes

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
// merge-joining against the levels' shard segments: chunk keys ascend
// in hash order, and so does each reader's segment, so every reader
// advances monotonically — the disk dedup path costs one sequential
// pass over the priors per level built. A read error aborts the merge:
// treating a prior as exhausted would mark its keys absent and re-emit
// them into the new level, publishing a store with duplicate keys.
func joinPresent(chunk *probeChunk, priors []*segReader) error {
	chunk.present = chunk.present[:len(chunk.keys)]
	for i, key := range chunk.keys {
		h := hashtab.Hash64Shift(key)
		hit := false
		for _, pr := range priors {
			for pr.ok && pr.hash < h {
				if err := pr.advance(); err != nil {
					return err
				}
			}
			if pr.ok && pr.hash == h {
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
			name := consName(c, pass, i/b.maxFanIn)
			if err := b.mergeRunsToRun(batch, name, fmt.Sprintf("%d_%d_%d", c, pass, i/b.maxFanIn)); err != nil {
				for _, t := range transient {
					os.Remove(t)
				}
				return nil, nil, err
			}
			out := filepath.Join(b.dir, name)
			transient = append(transient, out)
			next = append(next, out)
		}
		paths = next
		pass++
	}
	return paths, transient, nil
}

// mergeRunsToRun merges a batch of runs into the run file name, keeping
// the minimum-sequence candidate per key (the batch-local minimum; the
// final merge takes the minimum of batch minima, which is the global
// minimum).
func (b *builder) mergeRunsToRun(paths []string, name, tag string) error {
	runs, err := openSegFiles(paths, b.shards, runRecordBytes)
	if err != nil {
		return err
	}
	defer closeSegFiles(runs)
	af, err := newAtomicFile(b.dir, name)
	if err != nil {
		return err
	}
	workerBytes := int64(len(runs)) * int64(b.fanBuf)
	_, err = b.mergeSharded(af, tag, runRecordBytes, workerBytes, func() shardFunc {
		rm := newRunMerge(runs, b.fanBuf)
		var rec [runRecordBytes]byte
		return func(s int, out io.Writer) (uint64, error) {
			var n uint64
			read, err := rm.merge(s, func(key uint64, val uint16, seq uint64) error {
				binary.LittleEndian.PutUint64(rec[0:], key)
				binary.LittleEndian.PutUint16(rec[8:], val)
				binary.LittleEndian.PutUint64(rec[10:], seq)
				n++
				_, err := out.Write(rec[:])
				return err
			})
			b.spillR.Add(read)
			return n, err
		}
	})
	if err != nil {
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
// produces them in hash order, the .seq artifact — and with it
// the store's per-level index — needs ascending sequence order. Under
// budget it is one in-memory radix sort; over budget it spills sorted
// runs and k-way merges them. The budget charge covers the pair buffer
// and the equally long radix scratch. Merge workers push concurrently;
// the sequence numbers are unique, so the order they arrive in cannot
// change the output.
type seqSorter struct {
	b      *builder
	level  int
	mu     sync.Mutex
	pairs  []seqPair
	tmp    []seqPair
	limit  int
	spills []string
}

// newSeqSorter sizes the pair buffer once for at most maxPairs
// survivors (the level's run candidates bound them), so pushes never
// regrow it: growth by append would leave several times the buffer in
// garbage for the collector.
func (b *builder) newSeqSorter(level int, maxPairs int64) *seqSorter {
	s := &seqSorter{b: b, level: level, limit: b.seqBufPairs}
	s.pairs = make([]seqPair, 0, min(int64(s.limit), maxPairs))
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

// pushBatch adds one merge worker's batch of survivors.
func (s *seqSorter) pushBatch(ps []seqPair) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, p := range ps {
		s.pairs = append(s.pairs, p)
		if len(s.pairs) >= s.limit {
			if err := s.spill(); err != nil {
				return err
			}
		}
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
// The record buffer lives in the reader, so advancing allocates nothing.
type seqSpillReader struct {
	f   *os.File
	br  *bufio.Reader
	rec [seqPairBytes]byte
	cur seqPair
	ok  bool
	// read counts the bytes consumed, for the spill-read counter.
	read int64
}

func openSeqSpill(path string, bufBytes int) (*seqSpillReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	r := &seqSpillReader{f: f, br: bufio.NewReaderSize(f, bufBytes)}
	if err := r.advance(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func (r *seqSpillReader) advance() error {
	_, err := io.ReadFull(r.br, r.rec[:])
	if err == io.EOF {
		r.ok = false
		return nil
	}
	if err != nil {
		return fmt.Errorf("extbuild: truncated seq spill %s: %w", r.f.Name(), err)
	}
	r.cur = seqPair{binary.LittleEndian.Uint64(r.rec[0:]), binary.LittleEndian.Uint64(r.rec[8:])}
	r.ok = true
	r.read += seqPairBytes
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
		r, err := openSeqSpill(p, s.b.fanBuf)
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
			s.b.spillR.Add(r.read)
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
