package extbuild

import (
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

// newRunMerge reads file i through bufs[i].
func newRunMerge(files []*segFile, bufs [][]byte) *runMerge {
	m := &runMerge{files: files, readers: make([]*segReader, len(files))}
	for i := range files {
		m.readers[i] = newSegReader(bufs[i])
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
// len(bufs) goroutines, worker w set up once by newWorker(w) and
// writing through bufs[w].write, take hash shards off a shared counter
// and stream shard s's records to the transient part file
// part_<tag>_<s>. The parts are then concatenated into af in shard
// order and the per-shard counts trailer appended: the bytes one
// ascending pass over the shards would have written, whatever the
// schedule. No shard's output is ever held whole in memory.
func (b *builder) mergeSharded(af *atomicFile, tag string, recBytes int, bufs []mergeBufs, newWorker func(w int) shardFunc) ([]uint64, error) {
	counts := make([]uint64, b.shards)
	part := func(s int) string { return filepath.Join(b.dir, partName(tag, s)) }
	err := fanOut(len(bufs), b.shards, func(w int, next func() (int, bool)) error {
		merge := newWorker(w)
		bw := &bufWriter{buf: bufs[w].write}
		for s, ok := next(); ok; s, ok = next() {
			f, err := os.Create(part(s))
			if err != nil {
				return err
			}
			bw.reset(f)
			n, err := merge(s, bw)
			if err == nil {
				err = bw.flush()
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

// mergeBufs are one merge worker's file buffers: a read buffer per input
// and its part-file write buffer.
type mergeBufs struct {
	reads [][]byte
	write []byte
}

// carveMergeBufs carves the file buffers, size bytes each, of a merge
// over the given number of inputs: one set per worker.
func (b *builder) carveMergeBufs(c *carver, inputs, size int) []mergeBufs {
	bufs := make([]mergeBufs, min(b.workers, b.shards))
	for w := range bufs {
		bufs[w] = mergeBufs{reads: fileBufs(c, inputs, size), write: view[byte](c, size)}
	}
	return bufs
}

// fileBufBytes sizes the file buffers of a merge over the given inputs:
// fanBuf, or less when no input segment is that long, so the merges of
// small levels carve small buffers.
func (b *builder) fileBufBytes(inputs ...[]*segFile) int {
	n := runRecordBytes
	for _, files := range inputs {
		for _, sf := range files {
			for s := range sf.counts {
				n = max(n, int(sf.segmentBytes(s)))
			}
		}
	}
	return min(n, b.fanBuf)
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
	in, err := b.openLevelInputs(c)
	if err != nil {
		return err
	}
	defer in.close()
	runs, priors := in.runs, in.priors
	// The runs' own counts trailers bound the level's survivors; the
	// manifest's candidate counts only feed progress.
	var levelCands, runRecs int64
	for _, r := range b.man.Runs {
		levelCands += r.Candidates
	}
	for _, sf := range runs {
		for _, n := range sf.counts {
			runRecs += int64(n)
		}
	}

	// The level artifacts' write buffer, the sequence sorter, and every
	// worker's file buffers and probe chunk, carved from the workspace
	// while the expansion's slabs sit idle.
	var (
		afBuf  []byte
		bufs   []mergeBufs
		chunks []probeChunk
	)
	seqS := &seqSorter{b: b, level: c, limit: b.seqBufPairs}
	bufBytes := b.fileBufBytes(runs, priors)
	if err := b.ws.carve(func(cv *carver) {
		afBuf = view[byte](cv, bufBytes)
		// The level's run records bound its survivors, so pushes never
		// outgrow the pair buffer, the sorter spills only when they can
		// reach its limit, and it spills a full buffer at a time.
		limit := int64(seqS.limit)
		n := int(min(limit, runRecs))
		seqS.pairs, seqS.tmp = view[cand](cv, n)[:0], view[cand](cv, n)
		if runRecs >= limit {
			seqS.spillBuf = view[byte](cv, b.fanBuf)
			seqS.mergeBufs = fileBufs(cv, int(min(int64(b.maxFanIn), (runRecs+limit-1)/limit)), b.fanBuf)
		}
		bufs = b.carveMergeBufs(cv, len(runs)+len(priors), bufBytes)
		chunks = make([]probeChunk, len(bufs))
		for w := range chunks {
			chunks[w] = carveProbeChunk(cv, b.probeChunk)
		}
	}); err != nil {
		return err
	}
	defer seqS.drop()
	srtAF, err := newAtomicFile(b.dir, srtName(c), afBuf)
	if err != nil {
		return err
	}
	counts, err := b.mergeSharded(srtAF, strconv.Itoa(c), srtRecordBytes, bufs, func(w int) shardFunc {
		m := &levelMerger{
			b:          b,
			runs:       newRunMerge(runs, bufs[w].reads),
			priorFiles: priors,
			chunk:      &chunks[w],
			seqS:       seqS,
		}
		for _, buf := range bufs[w].reads[len(runs):] {
			m.priors = append(m.priors, newSegReader(buf))
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
	seqAF, err := newAtomicFile(b.dir, seqName(c), afBuf)
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
	b.progress(ProgressEvent{
		Phase: "merge", Level: c,
		FrontierReps: p.totalReps,
		Candidates:   levelCands,
		Survivors:    entries,
		Done:         true,
	})
	return nil
}

// levelInputs are a level merge's inputs, each read through a buffer of
// its own: the level's sealed runs, consolidated into transient runs
// when there are too many, and every completed level's .srt, which the
// level's candidates are merge-joined against (joinPresent).
type levelInputs struct {
	runs, priors []*segFile
	transient    []string
}

// openLevelInputs opens level c's merge inputs. The prior level files
// count against the fan-in like the runs do, so the runs are
// consolidated down to what the level files leave of maxFanIn, but to
// no fewer than 2: past depth maxFanIn − 2 the merge's read buffers
// outgrow their quarter of the budget by one per level.
func (b *builder) openLevelInputs(c int) (*levelInputs, error) {
	// Expansion left exactly one sealed run per slab (the manifest
	// validator refuses out-of-range or repeated slabs); take them in
	// slab order.
	paths := make([]string, len(b.man.Runs))
	for _, r := range b.man.Runs {
		paths[r.Slab] = filepath.Join(b.dir, r.File.Name)
	}
	var (
		in  = &levelInputs{}
		err error
	)
	paths, in.transient, err = b.consolidateRuns(c, paths, max(2, b.maxFanIn-len(b.man.Levels)))
	if err == nil {
		in.runs, err = openSegFiles(paths, b.shards, runRecordBytes)
	}
	if err == nil {
		lp := make([]string, len(b.man.Levels))
		for i, lv := range b.man.Levels {
			lp[i] = filepath.Join(b.dir, lv.Srt.Name)
		}
		in.priors, err = openSegFiles(lp, b.shards, srtRecordBytes)
	}
	if err != nil {
		in.close()
		return nil, err
	}
	return in, nil
}

// close closes the inputs and removes the transient runs.
func (in *levelInputs) close() {
	closeSegFiles(in.runs)
	closeSegFiles(in.priors)
	for _, p := range in.transient {
		os.Remove(p)
	}
}

// levelMerger is one mergeLevel worker: its run merge, its readers of
// the prior levels' segments, and the probe chunk whose survivors it
// hands on a batch at a time.
type levelMerger struct {
	b          *builder
	runs       *runMerge
	priorFiles []*segFile
	priors     []*segReader
	chunk      *probeChunk
	seqS       *seqSorter
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
// survivors on: records to out and candidates to the sequence sorter.
func (m *levelMerger) flush(out io.Writer, n *uint64) error {
	chunk := m.chunk
	if chunk.len() == 0 {
		return nil
	}
	if err := joinPresent(chunk, m.priors); err != nil {
		return err
	}
	chunk.pairs = chunk.pairs[:0]
	for i, key := range chunk.keys {
		if chunk.present[i] {
			continue
		}
		putSrtRecord(m.rec[:], key, chunk.vals[i])
		if _, err := out.Write(m.rec[:]); err != nil {
			return err
		}
		*n++
		chunk.pairs = append(chunk.pairs, newCand(key, chunk.vals[i], chunk.seqs[i]))
	}
	if err := m.seqS.pushBatch(chunk.pairs); err != nil {
		return err
	}
	chunk.reset()
	return nil
}

// probeChunk buffers deduped candidates of one shard between prior-level
// presence checks, bounding merge memory regardless of shard size, and
// the survivors it passes to the sequence sorter.
type probeChunk struct {
	keys    []uint64
	vals    []uint16
	seqs    []uint64
	present []bool
	pairs   []cand
	cap     int
}

// carveProbeChunk carves an n-candidate chunk. present is left as the
// arena holds it: joinPresent sets every entry before flush reads it.
func carveProbeChunk(c *carver, n int) probeChunk {
	return probeChunk{
		keys:    view[uint64](c, n)[:0],
		vals:    view[uint16](c, n)[:0],
		seqs:    view[uint64](c, n)[:0],
		present: view[bool](c, n)[:0],
		pairs:   view[cand](c, n)[:0],
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
func (p *probeChunk) reset()     { p.keys, p.vals, p.seqs = p.keys[:0], p.vals[:0], p.seqs[:0] }

// joinPresent marks which chunk keys exist in any prior level by
// merge-joining against the levels' shard segments: chunk keys ascend
// in hash order, and so does each reader's segment, so every reader
// advances monotonically — the dedup costs one sequential pass over
// the priors per level built. A read error aborts the merge:
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

// consolidateRuns reduces the runs to at most fanIn by merging batches
// of up to maxFanIn runs into consolidated runs (same format, same
// dedup rule), possibly over several passes. A pass merges only as many
// runs as it must: each batch of m runs removes m − 1, and the runs past
// the last batch are kept as they are. The original sealed runs are
// never deleted here — they belong to the checkpoint until the level
// publishes; consolidated files are transient and returned for cleanup.
func (b *builder) consolidateRuns(c int, paths []string, fanIn int) (final, transient []string, err error) {
	for pass := 0; len(paths) > fanIn; pass++ {
		var next []string
		i, excess := 0, len(paths)-fanIn
		for j := 0; excess > 0 && i < len(paths)-1; j++ {
			batch := paths[i:min(i+b.maxFanIn, i+excess+1, len(paths))]
			name := consName(c, pass, j)
			if err := b.mergeRunsToRun(batch, name, fmt.Sprintf("%d_%d_%d", c, pass, j)); err != nil {
				for _, t := range transient {
					os.Remove(t)
				}
				return nil, nil, err
			}
			out := filepath.Join(b.dir, name)
			transient = append(transient, out)
			next = append(next, out)
			i, excess = i+len(batch), excess-(len(batch)-1)
		}
		paths = append(next, paths[i:]...)
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
	var (
		afBuf []byte
		bufs  []mergeBufs
	)
	bufBytes := b.fileBufBytes(runs)
	if err := b.ws.carve(func(c *carver) {
		afBuf = view[byte](c, bufBytes)
		bufs = b.carveMergeBufs(c, len(runs), bufBytes)
	}); err != nil {
		return err
	}
	af, err := newAtomicFile(b.dir, name, afBuf)
	if err != nil {
		return err
	}
	_, err = b.mergeSharded(af, tag, runRecordBytes, bufs, func(w int) shardFunc {
		rm := newRunMerge(runs, bufs[w].reads)
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

// seqPairBytes is a sequence-sorter spill record: seq u64 | key u64.
const seqPairBytes = 16

// seqSorter restores discovery order for a level's survivors: the merge
// produces them in hash order, the .seq artifact — and with it
// the store's per-level index — needs ascending sequence order. Under
// its pair limit it is one in-memory radix sort; over it, it spills
// sorted runs and k-way merges them. The pair buffer and its equally
// long radix scratch are workspace views, and so, when it may spill,
// are its spill write buffer and a read buffer per spill its merges can
// take in (at most maxFanIn). Merge workers push concurrently; the sequence
// numbers are unique, so the order they arrive in cannot change the
// output.
type seqSorter struct {
	b         *builder
	level     int
	mu        sync.Mutex
	pairs     []cand
	tmp       []cand
	limit     int
	spillBuf  []byte
	mergeBufs [][]byte
	spills    []string
}

// sortPairs radix-sorts the buffered pairs by seq.
func (s *seqSorter) sortPairs() {
	sorted, spare := radixSortSeqPairs(s.pairs, s.tmp)
	s.pairs, s.tmp = sorted, spare[:cap(spare)]
}

// pushBatch adds one merge worker's batch of survivors.
func (s *seqSorter) pushBatch(ps []cand) error {
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
	bw := &bufWriter{w: f, buf: s.spillBuf}
	var rec [seqPairBytes]byte
	for _, p := range s.pairs {
		putSeqPair(rec[:], p)
		if _, err := bw.Write(rec[:]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.flush(); err != nil {
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

func putSeqPair(b []byte, p cand) {
	binary.LittleEndian.PutUint64(b[0:], p.seq())
	binary.LittleEndian.PutUint64(b[8:], p.key)
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
	return s.mergeSpills(s.spills, func(p cand) error {
		putSeqRecord(rec[:], p.key)
		_, err := w.Write(rec[:])
		return err
	})
}

// drop removes any spill files.
func (s *seqSorter) drop() {
	for _, p := range s.spills {
		os.Remove(p)
	}
}

// seqSpillReader streams one sorted spill file of (seq, key) records.
type seqSpillReader struct {
	recReader
	cur cand
	ok  bool
}

// openSeqSpill opens a spill file to read through buf.
func openSeqSpill(path string, buf []byte) (*seqSpillReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	st, err := f.Stat()
	if err == nil && st.Size()%seqPairBytes != 0 {
		err = fmt.Errorf("extbuild: truncated seq spill %s", f.Name())
	}
	if err != nil {
		f.Close()
		return nil, err
	}
	r := &seqSpillReader{recReader: recReader{buf: buf}}
	r.reset(f, seqPairBytes, 0, uint64(st.Size()/seqPairBytes))
	if err := r.advance(); err != nil {
		f.Close()
		return nil, err
	}
	return r, nil
}

func (r *seqSpillReader) advance() error {
	rec, err := r.next()
	r.ok = rec != nil
	if !r.ok {
		return err
	}
	r.cur = newCand(binary.LittleEndian.Uint64(rec[8:]), 0, binary.LittleEndian.Uint64(rec[0:]))
	return nil
}

// seqHeap orders spill readers by current sequence number.
type seqHeap []*seqSpillReader

func (h seqHeap) Len() int           { return len(h) }
func (h seqHeap) Less(i, j int) bool { return h[i].cur.sv < h[j].cur.sv }
func (h seqHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *seqHeap) Push(x any)        { *h = append(*h, x.(*seqSpillReader)) }
func (h *seqHeap) Pop() any          { old := *h; n := len(old); x := old[n-1]; *h = old[:n-1]; return x }

// mergeSpills k-way merges sorted spill files, emitting pairs in
// ascending sequence order, a read buffer each.
func (s *seqSorter) mergeSpills(paths []string, emit func(cand) error) error {
	bufs := s.mergeBufs
	if len(paths) > len(bufs) {
		return fmt.Errorf("extbuild: level %d: %d seq spills but %d read buffers", s.level, len(paths), len(bufs))
	}
	var h seqHeap
	defer func() {
		for _, r := range h {
			r.f.Close()
		}
	}()
	for i, p := range paths {
		r, err := openSeqSpill(p, bufs[i])
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
			s.b.spillR.Add(r.takeRead())
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
	bw := &bufWriter{w: f, buf: s.spillBuf}
	var rec [seqPairBytes]byte
	err = s.mergeSpills(batch, func(p cand) error {
		putSeqPair(rec[:], p)
		s.b.spillW.Add(seqPairBytes)
		_, err := bw.Write(rec[:])
		return err
	})
	if err == nil {
		err = bw.flush()
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
