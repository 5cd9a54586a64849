// Package extbuild performs the paper's BFS table build out of core:
// level frontiers are expanded into per-hash-shard sorted spill runs on
// disk, externally merge-deduped against all prior levels, and emitted
// directly as format-v2 stores — full or pre-split for a serving fleet —
// under a hard memory budget. No full in-memory hash table ever exists,
// so table depth is bounded by disk, not RAM (the regime the paper's
// k = 9 tables live in: §3.1 builds them "in advance, on a larger
// machine"; this package removes the larger machine).
//
// The build is deterministic and byte-reproducible: candidates carry the
// sequence numbers of the sequential in-memory expansion
// (bfs.ExpandRep), merges keep the minimum-sequence winner per key, and
// emission lays shards out canonically (hashtab.PlaceShardCanonical) —
// so for every k an in-memory build can reach, the out-of-core store is
// byte-identical to tablesio.SaveFile of bfs.Search with Workers: 1.
//
// Every sort on the build path runs in linear time. A slab's candidates
// reach the spill buffer in strictly ascending sequence order, because
// representatives are read in frontier order and bfs.ExpandRep numbers
// each one's candidates upward from its base. So a stable LSD radix
// sort on (shard, key) leaves equal keys in seq order, which yields the
// (shard, key, seq) run order the merges rely on without sorting on
// seq. The sort checks the order in the same pass that builds its
// histograms and fails the build with ErrCandidateOrder if it breaks.
// The sequence sorter radix-sorts its (seq, key) pairs, and emission
// places each shard with a counting sort by home slot.
//
// Work-directory artifacts, all little-endian:
//
//	run_<c>_<slab>.run   one expansion slab's candidates, sorted by
//	                     (shard, key, seq), run-deduped; 18-byte records
//	                     key u64 | val u16 | seq u64, then a trailer of
//	                     per-shard record counts (shardCount × u64)
//	level_<c>.srt        level c's survivors sorted by (shard, key);
//	                     10-byte records key u64 | val u16, same trailer
//	level_<c>.seq        level c's survivor keys, 8 bytes each, in
//	                     discovery (sequence) order
//	MANIFEST             tablesio.BuildManifest checkpoint envelope
//
// Every artifact is published by atomic rename and fingerprinted
// (FNV-64a over the file bytes) in the manifest, so a resume trusts
// exactly the files it can verify and re-does the rest.
package extbuild

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"repro/internal/tablesio"
)

const (
	runRecordBytes = 18 // key u64 | val u16 | seq u64
	srtRecordBytes = 10 // key u64 | val u16
	seqRecordBytes = 8  // key u64
)

// cand is one canonical candidate in flight: the expansion buffers sort
// slices of these by (shard, key, seq).
type cand struct {
	key   uint64
	seq   uint64
	shard uint32
	val   uint16
}

// candMemBytes is the in-memory footprint charged against the budget
// per buffered candidate (struct size rounded to alignment).
const candMemBytes = 24

// hashingWriter tees writes through FNV-64a, the artifact fingerprint
// recorded in the manifest.
type hashingWriter struct {
	w io.Writer
	h hash.Hash64
	n int64
}

func newHashingWriter(w io.Writer) *hashingWriter {
	return &hashingWriter{w: w, h: fnv.New64a()}
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
	h := fnv.New64a()
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
// under name by rename, returning the FNV fingerprint and size.
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
// must already be sorted by (shard, key, seq) and key-deduped. Returns
// the manifest entry and the per-shard counts it wrote.
func writeRunFile(dir, name string, cands []cand, shardCount int) (tablesio.ManifestFile, error) {
	af, err := newAtomicFile(dir, name)
	if err != nil {
		return tablesio.ManifestFile{}, err
	}
	var rec [runRecordBytes]byte
	counts := make([]uint64, shardCount)
	for _, c := range cands {
		binary.LittleEndian.PutUint64(rec[0:], c.key)
		binary.LittleEndian.PutUint16(rec[8:], c.val)
		binary.LittleEndian.PutUint64(rec[10:], c.seq)
		if _, err := af.Write(rec[:]); err != nil {
			af.abort()
			return tablesio.ManifestFile{}, err
		}
		counts[c.shard]++
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

// runReader streams one run file's records in order, tracking per-shard
// segment boundaries so the merge can consume exactly shard s's records
// at step s.
type runReader struct {
	f      *os.File
	br     *bufio.Reader
	counts []uint64
	// cur is the lookahead record; valid when ok.
	key   uint64
	seq   uint64
	val   uint16
	ok    bool
	left  uint64 // records remaining in the current shard segment
	shard int
	read  *int64 // cumulative spill-read counter (builder-wide)
}

func openRunReader(path string, shardCount, bufBytes int, readCounter *int64) (*runReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	counts, err := readCountsTrailer(f, shardCount, runRecordBytes)
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &runReader{
		f:      f,
		br:     bufio.NewReaderSize(f, bufBytes),
		counts: counts,
		shard:  -1,
		read:   readCounter,
	}, nil
}

// enterShard positions the reader at shard s's segment (shards must be
// entered in ascending order) and loads the first record.
func (r *runReader) enterShard(s int) error {
	if s != r.shard+1 {
		return fmt.Errorf("extbuild: run reader asked for shard %d after %d", s, r.shard)
	}
	r.shard = s
	r.left = r.counts[s]
	return r.advance()
}

// advance loads the next record of the current shard; ok reports
// whether one is loaded.
func (r *runReader) advance() error {
	if r.left == 0 {
		r.ok = false
		return nil
	}
	var rec [runRecordBytes]byte
	if _, err := io.ReadFull(r.br, rec[:]); err != nil {
		return fmt.Errorf("extbuild: truncated run %s: %w", r.f.Name(), err)
	}
	r.key = binary.LittleEndian.Uint64(rec[0:])
	r.val = binary.LittleEndian.Uint16(rec[8:])
	r.seq = binary.LittleEndian.Uint64(rec[10:])
	r.left--
	r.ok = true
	if r.read != nil {
		*r.read += runRecordBytes
	}
	return nil
}

func (r *runReader) close() error { return r.f.Close() }

// putSrtRecord / putSeqRecord / getSeqRecord encode the fixed level
// artifact records.
func putSrtRecord(b []byte, key uint64, val uint16) {
	binary.LittleEndian.PutUint64(b, key)
	binary.LittleEndian.PutUint16(b[8:], val)
}

func putSeqRecord(b []byte, key uint64) { binary.LittleEndian.PutUint64(b, key) }
func getSeqRecord(b []byte) uint64      { return binary.LittleEndian.Uint64(b) }

// srtReader streams a level's sorted survivors per shard, for the
// prior-level merge-join and for seeding the in-memory probe table.
type srtReader struct {
	f      *os.File
	br     *bufio.Reader
	counts []uint64
	key    uint64
	val    uint16
	ok     bool
	left   uint64
	shard  int
	read   *int64
}

func openSrtReader(path string, shardCount, bufBytes int, readCounter *int64) (*srtReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	counts, err := readCountsTrailer(f, shardCount, srtRecordBytes)
	if err != nil {
		f.Close()
		return nil, err
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		f.Close()
		return nil, err
	}
	return &srtReader{
		f:      f,
		br:     bufio.NewReaderSize(f, bufBytes),
		counts: counts,
		shard:  -1,
		read:   readCounter,
	}, nil
}

func (r *srtReader) enterShard(s int) error {
	if s != r.shard+1 {
		return fmt.Errorf("extbuild: srt reader asked for shard %d after %d", s, r.shard)
	}
	r.shard = s
	r.left = r.counts[s]
	return r.advance()
}

func (r *srtReader) advance() error {
	if r.left == 0 {
		r.ok = false
		return nil
	}
	var rec [srtRecordBytes]byte
	if _, err := io.ReadFull(r.br, rec[:]); err != nil {
		return fmt.Errorf("extbuild: truncated level file %s: %w", r.f.Name(), err)
	}
	r.key = binary.LittleEndian.Uint64(rec[0:])
	r.val = binary.LittleEndian.Uint16(rec[8:])
	r.left--
	r.ok = true
	if r.read != nil {
		*r.read += srtRecordBytes
	}
	return nil
}

func (r *srtReader) close() error { return r.f.Close() }

// srtSegments returns the byte offset of each shard's segment in a .srt
// file (prefix sums over the trailer counts), for the random-access
// reads of the emission phase.
func srtSegments(counts []uint64) []int64 {
	offs := make([]int64, len(counts)+1)
	for i, n := range counts {
		offs[i+1] = offs[i] + int64(n)*srtRecordBytes
	}
	return offs
}

func runName(level, slab int) string { return fmt.Sprintf("run_%d_%d.run", level, slab) }
func consName(level, pass, i int) string {
	return fmt.Sprintf("cons_%d_%d_%d.run", level, pass, i)
}
func srtName(level int) string { return fmt.Sprintf("level_%d.srt", level) }
func seqName(level int) string { return fmt.Sprintf("level_%d.seq", level) }
