package tablesio

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"unsafe"

	"repro/internal/bfs"
	"repro/internal/tables"
)

// hostLittleEndian gates the zero-copy reinterpretation of mapped bytes
// as typed slot arrays; on a big-endian host LoadFile falls back to the
// streaming loader, which decodes the little-endian sections portably.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// LoadInfo describes how a store was loaded.
type LoadInfo struct {
	// Version is the store's format version: 2, the only one this
	// package reads (zero when no store was loaded).
	Version int
	// MemoryMapped reports the v2 zero-copy fast path: the slot arrays
	// are the mapped file, shared through the page cache, not heap.
	MemoryMapped bool
	// Bytes is the store size on disk.
	Bytes int64
	// Entries is the number of table entries loaded (local entries for a
	// split store).
	Entries int
	// Split carries a split store's range and global-order metadata; nil
	// for a full store. It is only ever non-nil when the load opted in
	// with LoadOptions.AllowSplit.
	Split *tables.Split
}

// String renders the info the way serving logs and /stats report it.
func (i LoadInfo) String() string {
	if i.Version == 0 {
		return "none"
	}
	s := fmt.Sprintf("v%d", i.Version)
	if i.MemoryMapped {
		s += "+mmap"
	}
	if i.Split != nil {
		s += fmt.Sprintf("+split(%d/%d)", i.Split.I, i.Split.N)
	}
	return s
}

// LoadFile rehydrates a v2 table store from disk, picking the fastest
// safe path:
//
//   - On a little-endian Unix host the store is memory-mapped: the
//     header is validated, the file becomes the table, and cold start is
//     O(pages touched) instead of O(parse). Section integrity is trusted
//     like any database file; set LoadOptions.VerifyContent to pay one
//     sequential pass for the fingerprint and structural checks.
//   - Elsewhere (or with LoadOptions.DisableMmap) it streams through the
//     fully-verifying copying loader.
//
// A file of any other format version fails with ErrUnsupportedVersion.
//
// The open error is returned unwrapped, so callers can errors.Is against
// os.ErrNotExist to distinguish "no store yet" from a damaged store.
func LoadFile(path string, alphabet *bfs.Alphabet, opts *LoadOptions) (*bfs.Result, LoadInfo, error) {
	if alphabet == nil {
		return nil, LoadInfo{}, fmt.Errorf("tablesio: nil alphabet")
	}
	if opts == nil {
		opts = &LoadOptions{}
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, LoadInfo{}, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, LoadInfo{}, err
	}
	var m [4]byte
	if _, err := io.ReadFull(f, m[:]); err != nil {
		return nil, LoadInfo{}, fmt.Errorf("%w: reading magic: %w", ErrBadMagic, err)
	}
	if _, err := f.Seek(0, io.SeekStart); err != nil {
		return nil, LoadInfo{}, err
	}
	if err := checkMagic(m[:]); err != nil {
		return nil, LoadInfo{}, err
	}
	if mmapSupported && hostLittleEndian && !opts.DisableMmap {
		res, info, err := loadV2Mmap(f, st.Size(), alphabet, opts)
		switch {
		case err == nil:
			return res, info, nil
		case errors.Is(err, ErrCorrupt) || errors.Is(err, ErrBadMagic) ||
			errors.Is(err, ErrUnsupportedVersion) || errors.Is(err, ErrAlphabetMismatch) ||
			errors.Is(err, ErrSplitStore):
			// A verdict on the file itself; falling back would just parse
			// the same damage more slowly (or, worse, more leniently).
			return nil, LoadInfo{}, err
		}
		// A mapping failure (exotic filesystem, resource limits) is not a
		// verdict on the file; re-verify it through the streaming loader.
		if _, serr := f.Seek(0, io.SeekStart); serr != nil {
			return nil, LoadInfo{}, serr
		}
	}
	// The v2 streaming path directly, so a split store's metadata
	// survives (LoadWithOptions cannot return it).
	res, split, err := loadV2Stream(bufio.NewReaderSize(f, 1<<20), alphabet, opts)
	if err != nil {
		return nil, LoadInfo{}, err
	}
	return res, LoadInfo{Version: 2, Bytes: st.Size(), Entries: res.TotalStored(), Split: split}, nil
}

// loadV2Mmap is the zero-copy fast path: validate the header page, check
// the file size against the geometry, map the file, and reinterpret the
// page-aligned sections as the frozen table's slot arrays.
func loadV2Mmap(f *os.File, size int64, alphabet *bfs.Alphabet, opts *LoadOptions) (*bfs.Result, LoadInfo, error) {
	h, err := readHeaderPage(f)
	if err != nil {
		return nil, LoadInfo{}, err
	}
	if h.split() && !opts.AllowSplit {
		return nil, LoadInfo{}, fmt.Errorf("%w: store holds range %d of %d", ErrSplitStore, h.splitI, h.splitN)
	}
	if want := fingerprintOf(alphabet); h.fp != want {
		return nil, LoadInfo{}, fmt.Errorf("%w (file %+v, given %+v)", ErrAlphabetMismatch, h.fp, want)
	}
	l, err := validateGeometryV2(h, opts.entryCap())
	if err != nil {
		return nil, LoadInfo{}, err
	}
	if uint64(size) != l.fileSize {
		return nil, LoadInfo{}, fmt.Errorf("%w: file is %d bytes, geometry requires %d (truncated or padded store)", ErrCorrupt, size, l.fileSize)
	}
	data, unmap, err := mmapFile(f, size)
	if err != nil {
		return nil, LoadInfo{}, err
	}
	fail := func(ferr error) (*bfs.Result, LoadInfo, error) {
		unmap()
		return nil, LoadInfo{}, ferr
	}
	// Geometry validation guarantees every section starts strictly inside
	// the mapping: slots ≥ 16 puts keys/vals before their own non-empty
	// payloads, and entryCount ≥ 1 (enforced) keeps idxOff < fileSize.
	sections := []uint64{l.keysOff, l.valsOff, l.idxOff}
	if h.split() {
		sections = append(sections, l.gposOff)
	}
	for _, off := range sections {
		if off >= uint64(len(data)) || uintptr(unsafe.Pointer(&data[off]))%8 != 0 {
			return fail(fmt.Errorf("%w: section at %d is outside or misaligned in the mapping", ErrCorrupt, off))
		}
	}
	total := int(l.totalSlots)
	keys := unsafe.Slice((*uint64)(unsafe.Pointer(&data[l.keysOff])), total)
	vals := unsafe.Slice((*uint16)(unsafe.Pointer(&data[l.valsOff])), total)
	idx := unsafe.Slice((*uint32)(unsafe.Pointer(&data[l.idxOff])), int(h.entryCount))
	var gpos []uint32
	if h.split() {
		// The split metadata aliases the mapping (like the slot arrays),
		// so it shares the result's lifetime: valid until res is closed.
		gpos = unsafe.Slice((*uint32)(unsafe.Pointer(&data[l.gposOff])), int(h.entryCount))
	}
	if opts.VerifyContent {
		if hashKeyWords(keys) != h.keysHash || hashValWords(vals) != h.valsHash || hashIdxWords(idx) != h.idxHash {
			return fail(fmt.Errorf("%w: section fingerprint mismatch", ErrCorrupt))
		}
		if h.split() && hashIdxWords(gpos) != h.gposHash {
			return fail(fmt.Errorf("%w: global-position section fingerprint mismatch", ErrCorrupt))
		}
	}
	res, split, err := assembleV2(h, alphabet, keys, vals, idx, gpos, opts, opts.VerifyContent)
	if err != nil {
		return fail(err)
	}
	res.Frozen.SetMapped(data)
	res.Frozen.SetCloser(unmap)
	return res, LoadInfo{Version: 2, MemoryMapped: true, Bytes: size, Entries: res.TotalStored(), Split: split}, nil
}

// readHeaderPage reads and verifies the header at the start of f; the
// first page holds any v2 header.
func readHeaderPage(f *os.File) (*headerV2, error) {
	page := make([]byte, pageAlign)
	n, err := f.ReadAt(page, 0)
	if err != nil && err != io.EOF {
		return nil, fmt.Errorf("%w: reading v2 header: %w", ErrCorrupt, err)
	}
	h, _, err := parseHeaderV2(page[:n])
	return h, err
}
