// Package extbuild performs the paper's BFS table build out of core:
// level frontiers are expanded into per-hash-shard sorted spill runs on
// disk, externally merge-deduped against all prior levels, and emitted
// directly as format-v2 stores — full or pre-split for a serving fleet —
// within a working-memory target (Options.MemBudget). No full
// in-memory hash table ever exists, so table depth is bounded by disk,
// not RAM (the regime the paper's k = 9 tables live in: §3.1 builds
// them "in advance, on a larger machine"; this package removes the
// larger machine).
//
// The build is deterministic and byte-reproducible: candidates carry the
// sequence numbers of the sequential expansion (bfs.ExpandRep), merges
// keep the minimum-sequence winner per key, and emission lays shards
// out canonically (hashtab.PlaceShardCanonical) — so for every k an
// in-memory build can reach, the out-of-core store is byte-identical to
// tablesio.SaveFile of the sequential bfs.Search.
//
// Every sort on the build path runs in linear time. A slab's candidates
// reach the spill buffer in strictly ascending sequence order, because
// representatives are read in frontier order and bfs.ExpandRep numbers
// each one's candidates upward from its base. So a stable radix sort on
// Hash64Shift(key) leaves equal keys in seq order, which yields the
// (hash, seq) run order the merges rely on without sorting on seq. The
// candidate sort is MSD: one pass out of cache into cache-sized
// buckets, each finished in cache with digits sized to the bucket, so
// its cost per slab is linear in the slab for any input (radix.go). It
// checks the sequence order in its first pass and fails the build with
// ErrCandidateOrder if it breaks. The sequence sorter LSD-radix-sorts
// its (seq, key) pairs, and emission places each shard with a counting
// sort by home slot.
//
// Every phase runs on Options.Workers goroutines. Expansion fans slabs
// out. The merges are shard-parallel: workers take hash shards off a
// shared counter, read that shard's segment of every input through
// section readers, and stream its output to a transient part file; the
// parts are concatenated in shard order, so the artifact bytes do not
// depend on the schedule. Emission places shards and resolves index
// chunks in parallel and hands both to the store writer in order.
//
// One workspace (workspace.go) holds every large buffer of the build,
// carved afresh by each phase from one arena that grows to the largest
// phase's need. Expansion takes each worker's slab buffer and its sort
// scratch, the frontier keys and a run-file write buffer. A merge
// borrows the same memory for each worker's read buffer per input,
// part-file write buffer and probe chunk, for the level artifacts'
// write buffer, and for the sequence sorter's pair buffer, its radix
// scratch and, when it may spill, its spill buffers. Emission borrows it
// for each worker's gathered shard, raw records, slot arrays, placement
// scratch and index chunk, and for the store writer's encoding buffer.
// The arena's size is the ledger: outside it the build holds only a
// split cut's one-shard buffers (tablesio.SaveSplitFiles). The arena is
// mapped outside the Go heap and each outgrown block is unmapped, so
// the resident set follows the ledger rather than the arena's history.
//
// Work-directory artifacts, all little-endian. Runs and level files
// are in hash order: ascending Hash64Shift(key). The hash is a
// bijection whose top bits are the key's shard, so hash order is shard
// order and puts equal keys side by side.
//
//	run_<c>_<slab>.run   one expansion slab's candidates, sorted by
//	                     (hash, seq), run-deduped; 18-byte records
//	                     key u64 | val u16 | seq u64, then a trailer of
//	                     per-shard record counts (shardCount × u64)
//	level_<c>.srt        level c's survivors in hash order; 10-byte
//	                     records key u64 | val u16, same trailer
//	level_<c>.seq        level c's survivor keys, 8 bytes each, in
//	                     discovery (sequence) order
//	MANIFEST             tablesio.BuildManifest checkpoint envelope
//	part_<c>_<s>         transient: shard s's slice of level c's .srt
//	                     (part_<c>_<pass>_<i>_<s> for a consolidation
//	                     merge), removed once concatenated
//
// Every artifact is published by atomic rename and fingerprinted
// (tablesio.ContentHash over the file bytes) in the manifest, so a
// resume trusts exactly the files it can verify and re-does the rest.
package extbuild

import (
	"encoding/binary"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/hashtab"
	"repro/internal/tablesio"
)

const (
	runRecordBytes = 18 // key u64 | val u16 | seq u64
	srtRecordBytes = 10 // key u64 | val u16
	seqRecordBytes = 8  // key u64
)

// hashingWriter tees writes through tablesio.ContentHash, the artifact
// fingerprint recorded in the manifest.
type hashingWriter struct {
	w io.Writer
	h *tablesio.ContentHash
	n int64
}

func newHashingWriter(w io.Writer) *hashingWriter {
	return &hashingWriter{w: w, h: tablesio.NewContentHash()}
}

func (hw *hashingWriter) Write(p []byte) (int, error) {
	hw.h.Write(p)
	hw.n += int64(len(p))
	return hw.w.Write(p)
}

// hashFile re-fingerprints an artifact for resume verification.
func hashFile(path string) (uint64, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	h := tablesio.NewContentHash()
	n, err := io.Copy(h, f)
	if err != nil {
		return 0, 0, err
	}
	return h.Sum64(), n, nil
}

// verifyArtifact checks a manifest-recorded file against its recorded
// size and fingerprint.
func verifyArtifact(dir string, mf tablesio.ManifestFile) error {
	path := filepath.Join(dir, mf.Name)
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	if st.Size() != mf.Size {
		return fmt.Errorf("extbuild: %s is %d bytes, manifest records %d", mf.Name, st.Size(), mf.Size)
	}
	h, _, err := hashFile(path)
	if err != nil {
		return err
	}
	if h != mf.Hash {
		return fmt.Errorf("extbuild: %s fingerprint %#x, manifest records %#x", mf.Name, h, mf.Hash)
	}
	return nil
}

// bufWriter buffers writes to w in buf, a workspace buffer (a
// bufio.Writer would allocate its own).
type bufWriter struct {
	w   io.Writer
	buf []byte
	n   int
}

func (b *bufWriter) reset(w io.Writer) { b.w, b.n = w, 0 }

func (b *bufWriter) Write(p []byte) (int, error) {
	if len(b.buf) == 0 {
		return b.w.Write(p) // no buffer: write straight through
	}
	total := len(p)
	for len(p) > 0 {
		if b.n == len(b.buf) {
			if err := b.flush(); err != nil {
				return total - len(p), err
			}
		}
		k := copy(b.buf[b.n:], p)
		b.n += k
		p = p[k:]
	}
	return total, nil
}

// ReadFrom copies r through the buffer, so io.Copy onto a bufWriter
// needs no buffer of its own.
func (b *bufWriter) ReadFrom(r io.Reader) (int64, error) {
	if len(b.buf) == 0 {
		return io.Copy(b.w, r)
	}
	var total int64
	for {
		if b.n == len(b.buf) {
			if err := b.flush(); err != nil {
				return total, err
			}
		}
		k, err := r.Read(b.buf[b.n:])
		b.n += k
		total += int64(k)
		if err == io.EOF {
			return total, nil
		}
		if err != nil {
			return total, err
		}
	}
}

func (b *bufWriter) flush() error {
	if b.n == 0 {
		return nil
	}
	_, err := b.w.Write(b.buf[:b.n])
	b.n = 0
	return err
}

// atomicFile writes an artifact to a temp file in dir and publishes it
// under name by rename, returning its fingerprint and size.
type atomicFile struct {
	bufWriter
	dir, name string
	tmp       *os.File
	hw        *hashingWriter
}

// newAtomicFile starts the artifact name in dir, buffered through buf,
// which it holds until commit or abort.
func newAtomicFile(dir, name string, buf []byte) (*atomicFile, error) {
	tmp, err := os.CreateTemp(dir, ".extbuild-*")
	if err != nil {
		return nil, err
	}
	hw := newHashingWriter(tmp)
	return &atomicFile{bufWriter: bufWriter{w: hw, buf: buf}, dir: dir, name: name, tmp: tmp, hw: hw}, nil
}

// commit flushes, fsyncs, and renames the artifact into place. The sync
// matters: the manifest will promise this file's contents, so they must
// hit disk before the checkpoint does.
func (a *atomicFile) commit() (tablesio.ManifestFile, error) {
	if err := a.flush(); err != nil {
		a.abort()
		return tablesio.ManifestFile{}, err
	}
	if err := a.tmp.Chmod(0o644); err != nil {
		a.abort()
		return tablesio.ManifestFile{}, err
	}
	if err := a.tmp.Sync(); err != nil {
		a.abort()
		return tablesio.ManifestFile{}, err
	}
	tmpName := a.tmp.Name()
	if err := a.tmp.Close(); err != nil {
		os.Remove(tmpName)
		return tablesio.ManifestFile{}, err
	}
	if err := os.Rename(tmpName, filepath.Join(a.dir, a.name)); err != nil {
		os.Remove(tmpName)
		return tablesio.ManifestFile{}, err
	}
	return tablesio.ManifestFile{Name: a.name, Size: a.hw.n, Hash: a.hw.h.Sum64()}, nil
}

func (a *atomicFile) abort() {
	name := a.tmp.Name()
	a.tmp.Close()
	os.Remove(name)
}

// writeRunFile publishes one sorted, run-deduped candidate slab, buffered
// through buf. cands must already be in (hash, seq) order and
// key-deduped.
func writeRunFile(dir, name string, cands []cand, shardCount int, buf []byte) (tablesio.ManifestFile, error) {
	af, err := newAtomicFile(dir, name, buf)
	if err != nil {
		return tablesio.ManifestFile{}, err
	}
	shift := uint(64 - log2int(shardCount))
	var rec [runRecordBytes]byte
	counts := make([]uint64, shardCount)
	for _, c := range cands {
		binary.LittleEndian.PutUint64(rec[0:], c.key)
		binary.LittleEndian.PutUint16(rec[8:], c.val())
		binary.LittleEndian.PutUint64(rec[10:], c.seq())
		if _, err := af.Write(rec[:]); err != nil {
			af.abort()
			return tablesio.ManifestFile{}, err
		}
		counts[hashtab.Hash64Shift(c.key)>>shift]++
	}
	if err := writeCountsTrailer(af, counts); err != nil {
		af.abort()
		return tablesio.ManifestFile{}, err
	}
	return af.commit()
}

func writeCountsTrailer(w io.Writer, counts []uint64) error {
	var b [8]byte
	for _, n := range counts {
		binary.LittleEndian.PutUint64(b[:], n)
		if _, err := w.Write(b[:]); err != nil {
			return err
		}
	}
	return nil
}

// readCountsTrailer reads the per-shard counts from the tail of an
// artifact and cross-checks them against the record size.
func readCountsTrailer(f *os.File, shardCount, recordBytes int) ([]uint64, error) {
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	trailer := int64(shardCount) * 8
	if st.Size() < trailer {
		return nil, fmt.Errorf("extbuild: %s too short for its counts trailer", f.Name())
	}
	b := make([]byte, trailer)
	if _, err := f.ReadAt(b, st.Size()-trailer); err != nil {
		return nil, err
	}
	counts := make([]uint64, shardCount)
	var total uint64
	for i := range counts {
		counts[i] = binary.LittleEndian.Uint64(b[i*8:])
		total += counts[i]
	}
	if int64(total)*int64(recordBytes)+trailer != st.Size() {
		return nil, fmt.Errorf("extbuild: %s holds %d records but is %d bytes", f.Name(), total, st.Size())
	}
	return counts, nil
}

// segFile is a run or level file opened for per-shard reads. Its
// counts trailer locates every shard's segment, and any number of
// workers read segments concurrently through section readers (ReadAt
// on a shared *os.File is goroutine-safe), so a merge may visit shards
// in any order.
type segFile struct {
	f        *os.File
	counts   []uint64
	offs     []int64 // byte offset of each shard's segment
	recBytes int
}

func openSegFile(path string, shardCount, recordBytes int) (*segFile, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	counts, err := readCountsTrailer(f, shardCount, recordBytes)
	if err != nil {
		f.Close()
		return nil, err
	}
	offs := make([]int64, shardCount)
	for s := 1; s < shardCount; s++ {
		offs[s] = offs[s-1] + int64(counts[s-1])*int64(recordBytes)
	}
	return &segFile{f: f, counts: counts, offs: offs, recBytes: recordBytes}, nil
}

// openSegFiles opens every path, closing the ones already open on error.
func openSegFiles(paths []string, shardCount, recordBytes int) ([]*segFile, error) {
	fs := make([]*segFile, 0, len(paths))
	for _, p := range paths {
		sf, err := openSegFile(p, shardCount, recordBytes)
		if err != nil {
			closeSegFiles(fs)
			return nil, err
		}
		fs = append(fs, sf)
	}
	return fs, nil
}

func closeSegFiles(fs []*segFile) {
	for _, sf := range fs {
		sf.f.Close()
	}
}

// segmentBytes is the size of shard s's segment.
func (sf *segFile) segmentBytes(s int) int64 { return int64(sf.counts[s]) * int64(sf.recBytes) }

// readSegment reads shard s's whole segment into buf (grown as needed).
func (sf *segFile) readSegment(s int, buf []byte) ([]byte, error) {
	n := int(sf.segmentBytes(s))
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	buf = buf[:n]
	if _, err := sf.f.ReadAt(buf, sf.offs[s]); err != nil {
		return nil, err
	}
	return buf, nil
}

// recReader streams fixed-size records from a byte range of a file
// through a workspace read buffer, refilled by ReadAt a whole number of
// records at a time, so no record straddles a refill and advancing
// allocates nothing.
type recReader struct {
	f        *os.File
	buf      []byte
	recBytes int
	off      int64  // file offset of the next refill
	pos, end int    // the buffered, unreturned records are buf[pos:end]
	left     uint64 // records not yet returned
	// read counts the bytes returned; the reader's owner moves it to the
	// builder-wide spill-read counter.
	read int64
}

// reset points the reader at n records of recBytes each from offset off
// of f.
func (r *recReader) reset(f *os.File, recBytes int, off int64, n uint64) {
	r.f, r.recBytes, r.off, r.left = f, recBytes, off, n
	r.pos, r.end = 0, 0
}

// next returns the next record, valid until the following call, or nil
// once the range is exhausted.
func (r *recReader) next() ([]byte, error) {
	if r.left == 0 {
		return nil, nil
	}
	if r.pos == r.end {
		n := int(min(uint64(len(r.buf)/r.recBytes), r.left)) * r.recBytes
		if k, err := r.f.ReadAt(r.buf[:n], r.off); k < n {
			if err == nil || err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return nil, fmt.Errorf("extbuild: truncated %s: %w", filepath.Base(r.f.Name()), err)
		}
		r.off += int64(n)
		r.pos, r.end = 0, n
	}
	rec := r.buf[r.pos : r.pos+r.recBytes]
	r.pos += r.recBytes
	r.left--
	r.read += int64(r.recBytes)
	return rec, nil
}

// takeRead returns and resets the bytes returned since the last call.
func (r *recReader) takeRead() int64 {
	n := r.read
	r.read = 0
	return n
}

// segReader streams one shard segment of a segFile at a time, holding
// the lookahead record and its key's hash, the record order. Run records
// carry a seq; level records do not.
type segReader struct {
	recReader
	in *segFile
	// The lookahead record; valid when ok.
	key  uint64
	hash uint64
	seq  uint64
	val  uint16
	ok   bool
}

// newSegReader reads through buf, which must hold at least one record.
func newSegReader(buf []byte) *segReader {
	return &segReader{recReader: recReader{buf: buf}}
}

// enter positions the reader at shard s's segment of in and loads its
// first record.
func (r *segReader) enter(in *segFile, s int) error {
	r.in = in
	r.reset(in.f, in.recBytes, in.offs[s], in.counts[s])
	return r.advance()
}

// advance loads the segment's next record; ok reports whether one is
// loaded.
func (r *segReader) advance() error {
	rec, err := r.next()
	r.ok = rec != nil
	if !r.ok {
		return err
	}
	r.key = binary.LittleEndian.Uint64(rec)
	r.hash = hashtab.Hash64Shift(r.key)
	r.val = binary.LittleEndian.Uint16(rec[8:])
	if len(rec) == runRecordBytes {
		r.seq = binary.LittleEndian.Uint64(rec[10:])
	}
	return nil
}

// putSrtRecord / putSeqRecord / getSeqRecord encode the fixed level
// artifact records.
func putSrtRecord(b []byte, key uint64, val uint16) {
	binary.LittleEndian.PutUint64(b, key)
	binary.LittleEndian.PutUint16(b[8:], val)
}

func putSeqRecord(b []byte, key uint64) { binary.LittleEndian.PutUint64(b, key) }
func getSeqRecord(b []byte) uint64      { return binary.LittleEndian.Uint64(b) }

func runName(level, slab int) string { return fmt.Sprintf("run_%d_%d.run", level, slab) }
func consName(level, pass, i int) string {
	return fmt.Sprintf("cons_%d_%d_%d.run", level, pass, i)
}

func srtName(level int) string { return fmt.Sprintf("level_%d.srt", level) }
func seqName(level int) string { return fmt.Sprintf("level_%d.seq", level) }

// partName names the transient file holding shard s's slice of a
// shard-parallel merge's output; tag identifies the merge.
func partName(tag string, s int) string { return fmt.Sprintf("part_%s_%d", tag, s) }
