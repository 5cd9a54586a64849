// Package tablesio persists precomputed search tables. The paper leans
// on exactly this workflow: the k = 9 tables are computed once ("This
// can be done in advance, on a larger machine, and need not be repeated
// for each reversible function", §3.1), stored, and reloaded before
// querying — their CS1 runs spend 1111 seconds loading the tables from
// disk (§4.1), and §5 estimates a 5-minute load on commodity hardware.
//
// Format v2 (see format2.go) persists the frozen probe-table layout
// itself, so a load is a header check plus a memory map: cold start in
// milliseconds. SaveFile and SaveSplitFile write it atomically, both
// through the StreamWriter the out-of-core builder emits with, so one
// encoder produces every store; Load reads it, and LoadFile adds the
// mmap fast path. v2 is the only format this package reads: a store of
// any other version fails with ErrUnsupportedVersion.
//
// The alphabet itself is NOT serialized — it is reconstructable code —
// but a fingerprint (element count, max cost, XOR/sum of element words)
// is stored and verified on load so tables cannot be rehydrated against
// the wrong alphabet.
package tablesio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bfs"
	"repro/internal/hashtab"
	"repro/internal/tables"
)

// The magic is "RVT" plus an ASCII version byte. Version gating lets a
// reader reject files of another format version with a precise error
// instead of a fingerprint mismatch deep into the stream.
var magicPrefix = [3]byte{'R', 'V', 'T'}

// version2 is the zero-copy frozen-table format (format2.go), the only
// version this package reads or writes.
const version2 = byte('2')

const (
	flagReduced = 1 << 0
	// flagSplit marks a v2 store holding one high-hash range of a table
	// set (see SaveSplitFile); the header then carries the split extension
	// and the file a global-position section.
	flagSplit = 1 << 1
)

// Sentinel errors, matchable with errors.Is; every Load failure wraps
// exactly one of them. A failure caused by the reader itself (EIO,
// truncation) additionally wraps the underlying I/O error, so callers
// that need to distinguish a damaged store from a flaky transport can
// errors.Is against both.
var (
	// ErrBadMagic reports a stream that is not a tables file at all.
	ErrBadMagic = errors.New("tablesio: not a tables file")
	// ErrUnsupportedVersion reports a tables file of another format
	// version than v2: a newer one, or the retired v1.
	ErrUnsupportedVersion = errors.New("tablesio: unsupported format version")
	// ErrAlphabetMismatch reports tables saved against a different
	// alphabet than the one supplied to Load.
	ErrAlphabetMismatch = errors.New("tablesio: alphabet fingerprint mismatch")
	// ErrCorrupt reports structural damage: implausible sizes, invalid
	// permutation words, duplicate entries, or a fingerprint mismatch.
	ErrCorrupt = errors.New("tablesio: corrupt tables file")
	// ErrSplitStore reports a split store (one hash range of a table
	// set) offered to a loader that was not told to expect one. A
	// partial table silently served as a full one would answer "absent"
	// for every key outside its range, so loads must opt in
	// (LoadOptions.AllowSplit) and route the result through a
	// range-aware backend (tables.Partial).
	ErrSplitStore = errors.New("tablesio: split store requires AllowSplit")
)

// fingerprint is the persisted alphabet summary — the shared type the
// whole serving stack (store headers, network handshakes, backend
// metadata) agrees on, so a table can never be interpreted against the
// wrong building-block set no matter which transport delivered it.
type fingerprint = tables.Fingerprint

func fingerprintOf(a *bfs.Alphabet) fingerprint { return tables.FingerprintOf(a) }

// SaveFile persists a BFS result to path atomically in format v2 (the
// zero-copy layout LoadFile memory-maps) — a crash mid-write never
// leaves a truncated store that would fail the next load. The table's
// shards, then its level index, go through a StreamWriter.
func SaveFile(path string, res *bfs.Result) error {
	if err := checkFull(res); err != nil {
		return err
	}
	ft, levelIdx, counts := res.CompactView()
	g := geometryOf(res, ft, counts)
	return publishFile(path, func(f *os.File) error { return writeStore(f, g, ft, levelIdx, nil) })
}

// SaveSplitFile persists range i of n (a power of two, at least 2) of a
// full result as a split v2 store, with the same atomic publishing as
// SaveFile: only the owned range's entries, laid into their own split
// frozen table, with the global level geometry and per-entry global
// positions recorded so a fleet of such stores reassembles the exact
// global level order. Splitting is an offline cut of an immutable table
// set, so the same (res, n) always produces the same n files.
func SaveSplitFile(path string, res *bfs.Result, n, i int) error {
	if err := checkFull(res); err != nil {
		return err
	}
	if n < 2 {
		return fmt.Errorf("tablesio: split count %d < 2; SaveFile writes the full store", n)
	}
	if n&(n-1) != 0 || n > maxShardCount {
		return fmt.Errorf("tablesio: split count %d is not a power of two in [2, %d]", n, maxShardCount)
	}
	if i < 0 || i >= n {
		return fmt.Errorf("tablesio: split index %d outside [0, %d)", i, n)
	}
	fullFT, levelIdx, counts := res.CompactView()
	lo, hi := tables.RangeOf(i, n)
	var (
		keys        []uint64
		vals        []uint16
		gpos        []uint32
		localCounts = make([]int, len(counts))
	)
	for c, cn := range counts {
		for j, slot := range levelIdx[:cn] {
			k := fullFT.KeyAt(slot)
			if !tables.KeyInRange(k, lo, hi) {
				continue
			}
			keys = append(keys, k)
			vals = append(vals, fullFT.ValAt(slot))
			gpos = append(gpos, uint32(j))
			localCounts[c]++
		}
		levelIdx = levelIdx[cn:]
	}
	if len(keys) == 0 {
		return fmt.Errorf("tablesio: split %d/%d owns no entries (table too small for %d ranges)", i, n, n)
	}
	// Keep the full table's shard granularity where possible: n ranges of
	// shardCount/n shards reproduce the full table's conceptual shard
	// grid, so per-shard slot sizing stays comparable across the fleet.
	ft, err := hashtab.CompactSplit(keys, vals, max(fullFT.ShardCount()/n, 1), n, i)
	if err != nil {
		return err
	}
	idx := make([]uint32, len(keys))
	for j, k := range keys {
		slot, ok := ft.SlotOf(k)
		if !ok {
			return fmt.Errorf("tablesio: split entry %#x lost during placement", k)
		}
		idx[j] = slot
	}
	g := geometryOf(res, ft, localCounts)
	g.SplitN, g.SplitIdx = n, i
	g.GlobalEntries = int64(res.TotalStored())
	g.GlobalLevelCounts = int64s(counts)
	return publishFile(path, func(f *os.File) error { return writeStore(f, g, ft, idx, gpos) })
}

// checkFull rejects what the writers cannot save: a nil result, or one
// loaded from a split store. A split table holds one hash range, so a
// full-store header over it would publish a store that misses every
// other range's keys (and a re-split would mislabel its global shape).
func checkFull(res *bfs.Result) error {
	if res == nil {
		return fmt.Errorf("tablesio: nil result")
	}
	if n, i := res.Frozen.SplitN(); n > 1 {
		return fmt.Errorf("tablesio: result holds split range %d of %d; only a full table can be saved", i, n)
	}
	return nil
}

// geometryOf is the store geometry of ft, a frozen table holding
// counts[c] entries at each level of res; SaveSplitFile adds the split
// extension to it.
func geometryOf(res *bfs.Result, ft *hashtab.FrozenTable, counts []int) StreamGeometry {
	return StreamGeometry{
		Alphabet:      res.Alphabet,
		MaxCost:       res.MaxCost,
		Reduced:       res.Reduced,
		ShardCount:    ft.ShardCount(),
		SlotsPerShard: ft.SlotsPerShard(),
		EntryCount:    int64(ft.Len()),
		LevelCounts:   int64s(counts),
	}
}

func int64s(ns []int) []int64 {
	out := make([]int64, len(ns))
	for i, n := range ns {
		out[i] = int64(n)
	}
	return out
}

// writeChunk bounds the index and global-position slices handed to the
// StreamWriter at once, and so the encoding buffer it grows for them.
const writeChunk = 1 << 16

// writeStore streams ft's shards, then the level index idx and (split
// stores only) the global positions gpos, through a StreamWriter on f.
func writeStore(f *os.File, g StreamGeometry, ft *hashtab.FrozenTable, idx, gpos []uint32) error {
	w, err := NewStreamWriter(f, g)
	if err != nil {
		return err
	}
	sps := ft.SlotsPerShard()
	keys, vals := ft.RawKeys(), ft.RawVals()
	for s := 0; s < ft.ShardCount(); s++ {
		if err := w.WriteShard(keys[s*sps:(s+1)*sps], vals[s*sps:(s+1)*sps]); err != nil {
			return err
		}
	}
	for lo := 0; lo < len(idx); lo += writeChunk {
		if err := w.AppendIndex(idx[lo:min(lo+writeChunk, len(idx))]); err != nil {
			return err
		}
	}
	for lo := 0; lo < len(gpos); lo += writeChunk {
		if err := w.AppendGlobalPos(gpos[lo:min(lo+writeChunk, len(gpos))]); err != nil {
			return err
		}
	}
	return w.Finalize()
}

// publishFile writes a store through a temp file in the destination
// directory (same filesystem, so the final rename is atomic and cannot
// fail with EXDEV). The temp file is fsynced before the rename and the
// directory after it, so after a crash the path holds either the old
// store or the whole new one, and a returned nil means the new store
// survives one.
func publishFile(path string, write func(*os.File) error) error {
	tmp, err := os.CreateTemp(filepath.Dir(path), ".revtables-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := write(tmp); err != nil {
		tmp.Close()
		return err
	}
	// CreateTemp makes 0600 files; tables are built by one user and
	// served by another (the compute-once workflow), so restore the
	// conventional umask-style mode before publishing.
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return err
	}
	return SyncDir(filepath.Dir(path))
}

// SyncDir fsyncs a directory, making the renames into it durable.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// LoadOptions tune LoadWithOptions and LoadFile; the zero value (and a
// nil pointer) reproduces Load's defaults.
type LoadOptions struct {
	// Progress, when non-nil, is called after each completed cost level
	// with the level index and the number of entries it carried — the
	// streaming hook a long-lived service uses to report load progress
	// (the paper's k = 9 load takes minutes, §4.1/§5).
	Progress func(level, entries int)
	// MaxEntries caps the total entry count a header may declare; zero
	// means DefaultMaxEntries. Lower it when loading untrusted input so
	// a forged header cannot commit the process to gigabytes of slot
	// arrays before the section fingerprints are verified.
	MaxEntries int64
	// VerifyContent makes the LoadFile mmap fast path pay one sequential
	// pass to check the section fingerprints and structural invariants
	// it otherwise defers (the streaming paths always verify).
	VerifyContent bool
	// DisableMmap forces LoadFile through the streaming loader even for
	// v2 stores on capable hosts.
	DisableMmap bool
	// AllowSplit permits loading split stores (SaveSplitFile); without it
	// every loader rejects them with ErrSplitStore. Only LoadFile can
	// return the split metadata (LoadInfo.Split), so split stores must
	// be loaded through it.
	AllowSplit bool
}

// DefaultMaxEntries bounds the declared entry count accepted by Load:
// slightly above the paper's k = 9 table (≈2.2 × 10⁹ classes, §4.1).
const DefaultMaxEntries = 1 << 33

// entryCap is the entry count a header may declare under o.
func (o *LoadOptions) entryCap() int64 {
	if o.MaxEntries <= 0 {
		return DefaultMaxEntries
	}
	return o.MaxEntries
}

// Load rehydrates a BFS result saved in format v2. The alphabet must be
// the same construction that produced the saved tables; a fingerprint
// mismatch, version mismatch, truncation, or corruption is reported as
// an error (wrapping the package's sentinel errors), never a panic.
func Load(r io.Reader, alphabet *bfs.Alphabet) (*bfs.Result, error) {
	return LoadWithOptions(r, alphabet, nil)
}

// LoadWithOptions is Load with streaming progress reporting and resource
// caps. The store's integrity is verified in full on this path — it is
// the one for untrusted bytes; LoadFile adds the trusting mmap fast
// path. The result is frozen and immediately servable.
func LoadWithOptions(r io.Reader, alphabet *bfs.Alphabet, opts *LoadOptions) (*bfs.Result, error) {
	if alphabet == nil {
		return nil, fmt.Errorf("tablesio: nil alphabet")
	}
	if opts == nil {
		opts = &LoadOptions{}
	}
	br := bufio.NewReaderSize(r, 1<<20)
	m, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("%w: reading magic: %w", ErrBadMagic, err)
	}
	if err := checkMagic(m); err != nil {
		return nil, err
	}
	// The reader path has no way to hand back split metadata, so it
	// loads full stores only: loadV2Stream rejects split stores unless
	// AllowSplit, and callers that need the metadata use LoadFile.
	if opts.AllowSplit {
		return nil, fmt.Errorf("tablesio: AllowSplit requires LoadFile (the reader path cannot return split metadata)")
	}
	res, _, err := loadV2Stream(br, alphabet, opts)
	return res, err
}

// checkMagic vets a store's first four bytes: "RVT" and version 2.
func checkMagic(m []byte) error {
	if [3]byte{m[0], m[1], m[2]} != magicPrefix {
		return fmt.Errorf("%w: bad magic %q", ErrBadMagic, m)
	}
	if m[3] != version2 {
		return fmt.Errorf("%w: file version %q; this build reads only version %q", ErrUnsupportedVersion, m[3], version2)
	}
	return nil
}
