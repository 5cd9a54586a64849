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
	"bufio"
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

// atomicFile writes an artifact to a temp file in dir and publishes it
// under name by rename, returning its fingerprint and size.
type atomicFile struct {
	dir, name string
	tmp       *os.File
	bw        *bufio.Writer
	hw        *hashingWriter
}

func newAtomicFile(dir, name string) (*atomicFile, error) {
	tmp, err := os.CreateTemp(dir, ".extbuild-*")
	if err != nil {
		return nil, err
	}
	hw := newHashingWriter(tmp)
	return &atomicFile{dir: dir, name: name, tmp: tmp, bw: bufio.NewWriterSize(hw, 1<<18), hw: hw}, nil
}

func (a *atomicFile) Write(p []byte) (int, error) { return a.bw.Write(p) }

// commit flushes, fsyncs, and renames the artifact into place. The sync
// matters: the manifest will promise this file's contents, so they must
// hit disk before the checkpoint does.
func (a *atomicFile) commit() (tablesio.ManifestFile, error) {
	if err := a.bw.Flush(); err != nil {
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

// writeRunFile publishes one sorted, run-deduped candidate slab. cands
// must already be in (hash, seq) order and key-deduped.
func writeRunFile(dir, name string, cands []cand, shardCount int) (tablesio.ManifestFile, error) {
	af, err := newAtomicFile(dir, name)
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

// segReader streams one shard segment of a segFile at a time, holding
// the lookahead record and its key's hash, the record order. Run records
// carry a seq; level records do not. The record buffer lives in the
// reader, so advancing allocates nothing.
type segReader struct {
	br  *bufio.Reader
	in  *segFile
	rec [runRecordBytes]byte
	// The lookahead record; valid when ok.
	key  uint64
	hash uint64
	seq  uint64
	val  uint16
	ok   bool
	left uint64 // records remaining in the current segment
	// read counts the bytes consumed; its owner moves it to the
	// builder-wide spill-read counter.
	read int64
}

func newSegReader(bufBytes int) *segReader {
	return &segReader{br: bufio.NewReaderSize(nil, bufBytes)}
}

// enter positions the reader at shard s's segment of in and loads its
// first record.
func (r *segReader) enter(in *segFile, s int) error {
	r.in = in
	r.br.Reset(io.NewSectionReader(in.f, in.offs[s], in.segmentBytes(s)))
	r.left = in.counts[s]
	return r.advance()
}

// advance loads the segment's next record; ok reports whether one is
// loaded.
func (r *segReader) advance() error {
	if r.left == 0 {
		r.ok = false
		return nil
	}
	rec := r.rec[:r.in.recBytes]
	if _, err := io.ReadFull(r.br, rec); err != nil {
		return fmt.Errorf("extbuild: truncated %s: %w", filepath.Base(r.in.f.Name()), err)
	}
	r.key = binary.LittleEndian.Uint64(rec)
	r.hash = hashtab.Hash64Shift(r.key)
	r.val = binary.LittleEndian.Uint16(rec[8:])
	if len(rec) == runRecordBytes {
		r.seq = binary.LittleEndian.Uint64(rec[10:])
	}
	r.left--
	r.ok = true
	r.read += int64(len(rec))
	return nil
}

// takeRead returns and resets the bytes consumed since the last call.
func (r *segReader) takeRead() int64 {
	n := r.read
	r.read = 0
	return n
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
