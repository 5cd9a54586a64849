// Package tablesio persists precomputed search tables. The paper leans
// on exactly this workflow: the k = 9 tables are computed once ("This
// can be done in advance, on a larger machine, and need not be repeated
// for each reversible function", §3.1), stored, and reloaded before
// querying — their CS1 runs spend 1111 seconds loading the tables from
// disk (§4.1), and §5 estimates a 5-minute load on commodity hardware.
//
// Format v2 (see format2.go) persists the frozen probe-table layout
// itself, so a load is a header check plus a memory map: cold start in
// milliseconds. SaveFile writes it atomically through the StreamWriter
// the out-of-core builder emits with, and SaveSplitFiles cuts split stores
// from a finished one through it too; Load reads it, LoadFile adds the
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
	// set (see SaveSplitFiles); the header then carries the split extension
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
	g := StreamGeometry{
		Alphabet:      res.Alphabet,
		MaxCost:       res.MaxCost,
		Reduced:       res.Reduced,
		ShardCount:    ft.ShardCount(),
		SlotsPerShard: ft.SlotsPerShard(),
		EntryCount:    int64(ft.Len()),
		LevelCounts:   make([]int64, len(counts)),
	}
	for c, n := range counts {
		g.LevelCounts[c] = int64(n)
	}
	return PublishFile(path, func(f *os.File) error {
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
		for lo := 0; lo < len(levelIdx); lo += writeChunk {
			if err := w.AppendIndex(levelIdx[lo:min(lo+writeChunk, len(levelIdx))]); err != nil {
				return err
			}
		}
		return w.Finalize()
	})
}

// CheckSplitCount is the one rule for a split count: a power of two in
// [2, 65536], the shard-count cap. It places no bound against the
// store's shard count: a range narrower than a shard is cut from it.
func CheckSplitCount(n int) error {
	if n < 2 {
		return fmt.Errorf("tablesio: split count %d < 2; SaveFile writes the full store", n)
	}
	if n&(n-1) != 0 || n > maxShardCount {
		return fmt.Errorf("tablesio: split count %d is not a power of two in [2, %d]", n, maxShardCount)
	}
	return nil
}

// SaveSplitFiles cuts the n ranges (see CheckSplitCount) of the
// finished full store at src and publishes range i at dst(i), each
// atomically like SaveFile: the range's shards, its level index, and
// each entry's global level position, so a fleet of such stores
// reassembles the exact global level order. It is the only writer of
// split stores, and a cut of an immutable store, so the same (src, n)
// always produces the same n files. src is checked once, before any
// range is published: a split source fails with ErrSplitStore, a
// damaged one (a section fingerprint, a cost tag past the horizon, a
// key in another shard's slots) with ErrCorrupt, and a table too small
// to give every range an entry with an error of its own; none of them
// publishes a file. Memory stays bounded by one shard's arrays, an
// index chunk, a count per split shard and, for a re-placed range, 4 B
// per range slot (see splitSource); the table is never loaded.
func SaveSplitFiles(src string, n int, dst func(i int) string) error {
	if err := CheckSplitCount(n); err != nil {
		return err
	}
	if dst == nil {
		return fmt.Errorf("tablesio: SaveSplitFiles needs a destination per range")
	}
	f, err := os.Open(src)
	if err != nil {
		return err
	}
	defer f.Close()
	s, err := openSplitSource(f)
	if err != nil {
		return err
	}
	cuts, err := s.plan(n)
	if err != nil {
		return err
	}
	for i := range cuts {
		if err := PublishFile(dst(i), func(out *os.File) error { return s.cut(out, &cuts[i]) }); err != nil {
			return err
		}
	}
	return nil
}

// checkFull rejects what SaveFile cannot save: a nil result, or one
// loaded from a split store. A split table holds one hash range, so a
// full-store header over it would publish a store that misses every
// other range's keys.
func checkFull(res *bfs.Result) error {
	if res == nil {
		return fmt.Errorf("tablesio: nil result")
	}
	if n, i := res.Frozen.SplitN(); n > 1 {
		return fmt.Errorf("tablesio: result holds split range %d of %d; only a full table can be saved", i, n)
	}
	return nil
}

// writeChunk bounds the index slices SaveFile hands the StreamWriter at
// once (and so the encoding buffer it grows for them), and the bytes a
// cut reads at once.
const writeChunk = 1 << 16

// PublishFile publishes the store that write streams into an empty
// file, atomically, and is how every store writer publishes: through a
// temp file in the destination directory (same filesystem, so the final
// rename is atomic and cannot fail with EXDEV). The temp file is fsynced before the rename and the
// directory after it, so after a crash the path holds either the old
// store or the whole new one, and a returned nil means the new store
// survives one.
func PublishFile(path string, write func(*os.File) error) error {
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
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory, making the renames into it durable.
func syncDir(dir string) error {
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
	// AllowSplit permits loading split stores (SaveSplitFiles); without it
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
