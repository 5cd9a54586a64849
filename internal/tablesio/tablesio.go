// Package tablesio persists precomputed search tables. The paper leans
// on exactly this workflow: the k = 9 tables are computed once ("This
// can be done in advance, on a larger machine, and need not be repeated
// for each reversible function", §3.1), stored, and reloaded before
// querying — their CS1 runs spend 1111 seconds loading the tables from
// disk (§4.1), and §5 estimates a 5-minute load on commodity hardware.
//
// Format v2 (see format2.go) persists the frozen probe-table layout
// itself, so a load is a header check plus a memory map: cold start in
// milliseconds. SaveV2, SaveSplit and their atomic file forms SaveFile
// and SaveSplitFile write it; Load reads it, and LoadFile adds the mmap
// fast path.
//
// Format v1 is read-only: the original little-endian entry stream,
// which every load must parse and rehash, still loads so that stores
// written by older binaries stay usable, but nothing writes it any more:
//
//	magic "RVT1" | flags | k | alphabet fingerprint |
//	per-level counts | representative words | per-representative values |
//	FNV-64a checksum of everything above
//
// The alphabet itself is NOT serialized — it is reconstructable code —
// but a fingerprint (element count, max cost, XOR/sum of element words)
// is stored and verified on load so tables cannot be rehydrated against
// the wrong alphabet.
package tablesio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"os"
	"path/filepath"

	"repro/internal/bfs"
	"repro/internal/hashtab"
	"repro/internal/perm"
	"repro/internal/tables"
)

// The magic is "RVT" plus an ASCII version byte. Version gating lets a
// reader reject files written by a newer incompatible format with a
// precise error instead of a checksum mismatch deep into the stream.
var (
	magicPrefix = [3]byte{'R', 'V', 'T'}
)

const (
	// version1 is the legacy entry-stream format.
	version1 = byte('1')
	// version2 is the zero-copy frozen-table format (format2.go).
	version2 = byte('2')
)

const (
	flagReduced = 1 << 0
	// flagSplit marks a v2 store holding one high-hash range of a table
	// set (see SaveSplit); the header then carries the split extension
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
	// ErrUnsupportedVersion reports a tables file written by a different
	// (usually newer) format version of this package.
	ErrUnsupportedVersion = errors.New("tablesio: unsupported format version")
	// ErrAlphabetMismatch reports tables saved against a different
	// alphabet than the one supplied to Load.
	ErrAlphabetMismatch = errors.New("tablesio: alphabet fingerprint mismatch")
	// ErrCorrupt reports structural damage: implausible sizes, invalid
	// permutation words, duplicate entries, or a checksum mismatch.
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

// Legacy (v1) on-disk value packing: bit 15 flags a first element, the
// low 15 bits hold the element index, all ones marking the identity.
// The cost field of the in-memory value is reconstructed from the
// entry's level on load.
const (
	legacyFlagFirst uint16 = 1 << 15
	legacyElemMask  uint16 = 0x7FFF
	legacyIdentity  uint16 = legacyElemMask
)

// SaveFile persists a BFS result to path atomically in format v2 (the
// zero-copy layout LoadFile memory-maps) — a crash mid-write never
// leaves a truncated store that would fail the next load.
func SaveFile(path string, res *bfs.Result) error {
	return publishFile(path, func(w io.Writer) error { return SaveV2(w, res) })
}

// SaveSplitFile persists range i of n of a result as a split v2 store,
// with the same atomic publishing as SaveFile.
func SaveSplitFile(path string, res *bfs.Result, n, i int) error {
	return publishFile(path, func(w io.Writer) error { return SaveSplit(w, res, n, i) })
}

// publishFile writes a store through a temp file in the destination
// directory (same filesystem, so the final rename is atomic and cannot
// fail with EXDEV). The temp file is fsynced before the rename and the
// directory after it, so after a crash the path holds either the old
// store or the whole new one, and a returned nil means the new store
// survives one.
func publishFile(path string, write func(io.Writer) error) error {
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

// checksumReader tees reads into a running checksum.
type checksumReader struct {
	r io.Reader
	h hash.Hash64
}

func (cr *checksumReader) Read(p []byte) (int, error) {
	n, err := cr.r.Read(p)
	cr.h.Write(p[:n])
	return n, err
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
	// a forged header cannot commit the process to gigabytes of hash
	// table before the (end-of-stream) checksum is verified.
	MaxEntries int64
	// VerifyContent makes the LoadFile mmap fast path pay one sequential
	// pass to check the section fingerprints and structural invariants
	// it otherwise defers (the streaming paths always verify).
	VerifyContent bool
	// DisableMmap forces LoadFile through the streaming loader even for
	// v2 stores on capable hosts.
	DisableMmap bool
	// AllowSplit permits loading split stores (SaveSplit); without it
	// every loader rejects them with ErrSplitStore. Only LoadFile can
	// return the split metadata (LoadInfo.Split), so split stores must
	// be loaded through it.
	AllowSplit bool
}

// DefaultMaxEntries bounds the declared entry count accepted by Load:
// slightly above the paper's k = 9 table (≈2.2 × 10⁹ classes, §4.1).
const DefaultMaxEntries = 1 << 33

// levelAllocChunk caps the per-level slice pre-allocation. Level sizes
// are attacker-controlled header fields verified only implicitly (by the
// stream ending early), so allocation grows in bounded chunks as entries
// actually arrive rather than trusting the declared size up front.
const levelAllocChunk = 1 << 20

// Load rehydrates a BFS result saved in format v2 or v1 (the format is
// sniffed from the version byte). The alphabet must be the same
// construction that produced the saved tables; a fingerprint mismatch,
// version mismatch, truncation, or corruption is reported as an error
// (wrapping the package's sentinel errors), never a panic.
func Load(r io.Reader, alphabet *bfs.Alphabet) (*bfs.Result, error) {
	return LoadWithOptions(r, alphabet, nil)
}

// LoadWithOptions is Load with streaming progress reporting and resource
// caps. Both formats verify their integrity in full on this path — it is
// the one for untrusted bytes; LoadFile adds the trusting mmap fast
// path. The result is frozen and immediately servable.
func LoadWithOptions(r io.Reader, alphabet *bfs.Alphabet, opts *LoadOptions) (*bfs.Result, error) {
	if alphabet == nil {
		return nil, fmt.Errorf("tablesio: nil alphabet")
	}
	if opts == nil {
		opts = &LoadOptions{}
	}
	maxEntries := opts.MaxEntries
	if maxEntries <= 0 {
		maxEntries = DefaultMaxEntries
	}
	br := bufio.NewReaderSize(r, 1<<20)
	m, err := br.Peek(4)
	if err != nil {
		return nil, fmt.Errorf("%w: reading magic: %w", ErrBadMagic, err)
	}
	if [3]byte{m[0], m[1], m[2]} != magicPrefix {
		return nil, fmt.Errorf("%w: bad magic %q", ErrBadMagic, m)
	}
	switch m[3] {
	case version1:
		return loadV1Stream(br, alphabet, opts, maxEntries)
	case version2:
		// The reader path has no way to hand back split metadata, so it
		// loads full stores only: loadV2Stream rejects split stores
		// unless AllowSplit, and the metadata (if allowed) is dropped —
		// callers that need it use LoadFile.
		if opts.AllowSplit {
			return nil, fmt.Errorf("tablesio: AllowSplit requires LoadFile (the reader path cannot return split metadata)")
		}
		res, _, err := loadV2Stream(br, alphabet, opts, maxEntries)
		return res, err
	default:
		return nil, fmt.Errorf("%w: file version %q, this build reads %q and %q", ErrUnsupportedVersion, m[3], version1, version2)
	}
}

// loadV1Stream parses the legacy entry-stream format, rebuilding the
// hash table entry by entry (the rehash cost v2 exists to avoid) and
// freezing it like a fresh search (bfs.FromLevels).
func loadV1Stream(br *bufio.Reader, alphabet *bfs.Alphabet, opts *LoadOptions, maxEntries int64) (*bfs.Result, error) {
	cr := &checksumReader{r: br, h: fnv.New64a()}
	var m [4]byte
	if _, err := io.ReadFull(cr, m[:]); err != nil {
		return nil, fmt.Errorf("%w: reading magic: %w", ErrBadMagic, err)
	}
	var flags, maxCost uint32
	var fp fingerprint
	for _, v := range []interface{}{
		&flags, &maxCost,
		&fp.Elements, &fp.MaxCost, &fp.XorPerms, &fp.SumCosts,
	} {
		if err := binary.Read(cr, binary.LittleEndian, v); err != nil {
			return nil, fmt.Errorf("%w: reading header: %w", ErrCorrupt, err)
		}
	}
	if want := fingerprintOf(alphabet); fp != want {
		return nil, fmt.Errorf("%w (file %+v, given %+v)", ErrAlphabetMismatch, fp, want)
	}
	if maxCost > uint32(bfs.MaxPackedCost) {
		return nil, fmt.Errorf("%w: implausible horizon %d", ErrCorrupt, maxCost)
	}
	levelSizes := make([]uint64, maxCost+1)
	var total uint64
	for c := range levelSizes {
		if err := binary.Read(cr, binary.LittleEndian, &levelSizes[c]); err != nil {
			return nil, fmt.Errorf("%w: reading level sizes: %w", ErrCorrupt, err)
		}
		// Capping each level before summing keeps the running total well
		// below the uint64 wrap point (≤ 65 levels × maxEntries), so a
		// forged size cannot overflow past the cumulative check below.
		if levelSizes[c] > uint64(maxEntries) {
			return nil, fmt.Errorf("%w: level %d declares %d entries, cap %d", ErrCorrupt, c, levelSizes[c], maxEntries)
		}
		total += levelSizes[c]
		if total > uint64(maxEntries) {
			return nil, fmt.Errorf("%w: declared entry count exceeds cap %d", ErrCorrupt, maxEntries)
		}
	}
	levels := make([][]perm.Perm, maxCost+1)
	table := hashtab.NewSharded(int(min(total, levelAllocChunk)))
	buf := make([]byte, 10)
	for c := 0; c <= int(maxCost); c++ {
		n := int(levelSizes[c])
		lvl := make([]perm.Perm, 0, min(n, levelAllocChunk))
		for i := 0; i < n; i++ {
			if _, err := io.ReadFull(cr, buf); err != nil {
				return nil, fmt.Errorf("%w: reading entries (level %d): %w", ErrCorrupt, c, err)
			}
			key := binary.LittleEndian.Uint64(buf[0:8])
			raw := binary.LittleEndian.Uint16(buf[8:10])
			p := perm.Perm(key)
			if !p.IsValid() {
				return nil, fmt.Errorf("%w: invalid entry %#x at level %d", ErrCorrupt, key, c)
			}
			// Translate the legacy value into the cost-packed in-memory
			// form; the level index IS the entry's exact cost.
			var val uint16
			if raw&legacyElemMask == legacyIdentity {
				if c != 0 || p != perm.Identity {
					return nil, fmt.Errorf("%w: identity value on non-identity entry %v at level %d", ErrCorrupt, p, c)
				}
				val = bfs.PackIdentity()
			} else {
				elem := int(raw & legacyElemMask)
				if elem >= alphabet.Len() {
					return nil, fmt.Errorf("%w: entry %v references element %d of a %d-element alphabet", ErrCorrupt, p, elem, alphabet.Len())
				}
				val = bfs.PackValue(c, elem, raw&legacyFlagFirst != 0)
			}
			lvl = append(lvl, p)
			if _, inserted := table.Insert(key, val); !inserted {
				return nil, fmt.Errorf("%w: duplicate entry %v at level %d", ErrCorrupt, p, c)
			}
		}
		levels[c] = lvl
		if opts.Progress != nil {
			opts.Progress(c, n)
		}
	}
	gotSum := cr.h.Sum64()
	var wantSum uint64
	if err := binary.Read(br, binary.LittleEndian, &wantSum); err != nil {
		return nil, fmt.Errorf("%w: reading checksum: %w", ErrCorrupt, err)
	}
	if gotSum != wantSum {
		return nil, fmt.Errorf("%w: checksum mismatch (file %#x, computed %#x)", ErrCorrupt, wantSum, gotSum)
	}
	res, err := bfs.FromLevels(alphabet, int(maxCost), flags&flagReduced != 0, table, levels, true)
	if err != nil {
		return nil, fmt.Errorf("%w: %w", ErrCorrupt, err)
	}
	return res, nil
}
