package tablesio

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/bfs"
	"repro/internal/tables"
)

// Checkpoint manifests: the restart point of an out-of-core table
// build. A multi-hour BFS build records, after every durable step, which
// cost levels are fully merged onto disk and which expansion runs of the
// in-progress level are sealed, so a crashed build resumes with at most
// one level of rework. The envelope is deliberately minimal and
// self-verifying:
//
//	"RVTM2 <16-hex fingerprint> <payload length>\n"
//	<payload: JSON-encoded BuildManifest>
//
// The fingerprint covers the payload bytes with ContentHash, the same
// xxhash-style word hash the v2 store sections use, and the declared
// length is bounds-checked BEFORE any allocation — a forged manifest
// can neither demand an OOM-sized buffer nor smuggle a tampered work
// list past the resume path. Structural validation (level numbering,
// shard geometry, file-name hygiene) happens in DecodeManifest;
// semantic validation (do the named files exist with the recorded sizes
// and fingerprints) is the resuming builder's job.

const (
	// manifestMagic starts every manifest; the trailing digit versions
	// the envelope. Version 2 marks the hash-ordered run and level
	// files and ContentHash artifact fingerprints; a version-1
	// checkpoint's key-ordered files must not be merged as hash-ordered
	// ones, so it fails with ErrUnsupportedVersion.
	manifestMagic = "RVTM2"
	// maxManifestBytes caps the declared payload length: generous for
	// any real build (a run entry is ~10² bytes; a level holds at most a
	// few thousand slabs) yet small enough that a forged length cannot
	// hurt.
	maxManifestBytes = 8 << 20
	// maxManifestRuns bounds the sealed-run list.
	maxManifestRuns = 1 << 20
	// maxManifestGeneration keeps the resume counter sane.
	maxManifestGeneration = 1 << 30
)

// ManifestFile names one durable artifact of the build work directory
// together with the size and content fingerprint it must still have for
// a resume to trust it. Names are bare file names, always interpreted
// relative to the manifest's own directory — DecodeManifest rejects
// anything path-like.
type ManifestFile struct {
	Name string `json:"name"`
	Size int64  `json:"size"`
	Hash uint64 `json:"hash,string"`
}

// ManifestLevel records one fully merged cost level: its survivor count
// and the two per-level artifacts — the shard-ordered sorted entries
// (.srt) and the discovery-ordered key stream (.seq).
type ManifestLevel struct {
	Level   int          `json:"level"`
	Entries int64        `json:"entries"`
	Srt     ManifestFile `json:"srt"`
	Seq     ManifestFile `json:"seq"`
}

// ManifestRun records one sealed spill run of the in-progress level:
// slab is the deterministic expansion slab the run covers, so a resume
// re-expands exactly the slabs with no sealed run.
type ManifestRun struct {
	Level      int          `json:"level"`
	Slab       int          `json:"slab"`
	Candidates int64        `json:"candidates"`
	File       ManifestFile `json:"file"`
}

// BuildManifest is the checkpoint payload. Generation increments every
// time a (re)started build takes ownership of the work directory, so
// stale writers from a previous attempt can be recognized. The build
// configuration that shapes on-disk artifacts (alphabet, horizon,
// shard geometry, slab partition) is pinned here; a resume under a
// different configuration must discard rather than reuse.
type BuildManifest struct {
	Generation int                `json:"generation"`
	K          int                `json:"k"`
	Reduced    bool               `json:"reduced"`
	Alphabet   tables.Fingerprint `json:"alphabet"`
	Shards     int                `json:"shards"`
	// LevelSlabs and LevelReps pin the slab partition of the in-progress
	// level (level len(Levels)): the slab count and the representatives
	// per slab. Sealed runs are only reusable when BOTH match the
	// resuming build's plan — the count alone does not determine the
	// partition, since different budget/worker combinations can tile the
	// same frontier into the same number of differently-sized slabs.
	// Zero when no expansion has started.
	LevelSlabs int             `json:"level_slabs,omitempty"`
	LevelReps  int64           `json:"level_reps,omitempty"`
	Levels     []ManifestLevel `json:"levels"`
	Runs       []ManifestRun   `json:"runs,omitempty"`
	// CreatedDir records that the build made its work directory, so the
	// build that finishes it — the first attempt or a resume — removes
	// the directory along with the artifacts, and leaves a directory
	// its caller made in place.
	CreatedDir bool `json:"created_dir,omitempty"`
}

// ContentHash fingerprints a byte stream with the word hash the v2 store
// sections use: the bytes as little-endian words, a final partial word
// zero-padded (the word count inside the hash pins the length to a
// word; ManifestFile.Size pins it exactly). It is the build path's one
// fingerprint: the manifest envelope's, and every work-directory
// artifact's (ManifestFile.Hash). Use NewContentHash; Write never fails.
type ContentHash struct {
	h    wordHash
	tail [8]byte
	nt   int // bytes held in tail
}

// NewContentHash returns an empty fingerprint.
func NewContentHash() *ContentHash { return &ContentHash{h: newWordHash()} }

func (c *ContentHash) Write(p []byte) (int, error) {
	n := len(p)
	if c.nt > 0 {
		k := copy(c.tail[c.nt:], p)
		c.nt += k
		p = p[k:]
		if c.nt < 8 {
			return n, nil
		}
		c.h.word(binary.LittleEndian.Uint64(c.tail[:]))
		c.nt = 0
	}
	for ; len(p) >= 8; p = p[8:] {
		c.h.word(binary.LittleEndian.Uint64(p))
	}
	c.nt = copy(c.tail[:], p)
	return n, nil
}

// Sum64 returns the fingerprint of the bytes written so far.
func (c *ContentHash) Sum64() uint64 {
	h := c.h
	if c.nt > 0 {
		var w [8]byte
		copy(w[:], c.tail[:c.nt])
		h.word(binary.LittleEndian.Uint64(w[:]))
	}
	return h.sum()
}

// hashManifestBytes fingerprints a manifest payload.
func hashManifestBytes(b []byte) uint64 {
	h := NewContentHash()
	h.Write(b)
	return h.Sum64()
}

// EncodeManifest serializes a manifest into the self-verifying envelope.
func EncodeManifest(m *BuildManifest) ([]byte, error) {
	if m == nil {
		return nil, fmt.Errorf("tablesio: nil manifest")
	}
	payload, err := json.Marshal(m)
	if err != nil {
		return nil, err
	}
	if len(payload) > maxManifestBytes {
		return nil, fmt.Errorf("tablesio: manifest payload %d bytes exceeds cap %d", len(payload), maxManifestBytes)
	}
	head := fmt.Sprintf("%s %016x %d\n", manifestMagic, hashManifestBytes(payload), len(payload))
	return append([]byte(head), payload...), nil
}

// DecodeManifest parses and validates a manifest envelope. Every
// failure wraps a package sentinel: ErrBadMagic for a stream that is
// not a manifest, ErrUnsupportedVersion for a newer envelope, ErrCorrupt
// for anything truncated, forged, or structurally implausible. The
// declared length is checked against the cap and the actual bytes
// before the payload is touched, so damage is caught with O(header)
// work and no large allocations.
func DecodeManifest(b []byte) (*BuildManifest, error) {
	nl := -1
	for i := 0; i < len(b) && i < 64; i++ {
		if b[i] == '\n' {
			nl = i
			break
		}
	}
	if nl < 0 {
		if len(b) >= 4 && string(b[:4]) == manifestMagic[:4] {
			return nil, fmt.Errorf("%w: unterminated manifest header", ErrCorrupt)
		}
		return nil, fmt.Errorf("%w: no manifest header", ErrBadMagic)
	}
	fields := strings.Fields(string(b[:nl]))
	if len(fields) != 3 || !strings.HasPrefix(fields[0], manifestMagic[:4]) {
		return nil, fmt.Errorf("%w: malformed manifest header", ErrBadMagic)
	}
	if fields[0] != manifestMagic {
		return nil, fmt.Errorf("%w: manifest envelope %q", ErrUnsupportedVersion, fields[0])
	}
	var declaredHash uint64
	if _, err := fmt.Sscanf(fields[1], "%016x", &declaredHash); err != nil || len(fields[1]) != 16 {
		return nil, fmt.Errorf("%w: malformed manifest fingerprint", ErrCorrupt)
	}
	var declaredLen int64
	if _, err := fmt.Sscanf(fields[2], "%d", &declaredLen); err != nil {
		return nil, fmt.Errorf("%w: malformed manifest length", ErrCorrupt)
	}
	if declaredLen < 2 || declaredLen > maxManifestBytes {
		return nil, fmt.Errorf("%w: manifest length %d outside [2, %d]", ErrCorrupt, declaredLen, maxManifestBytes)
	}
	payload := b[nl+1:]
	if int64(len(payload)) != declaredLen {
		return nil, fmt.Errorf("%w: manifest holds %d payload bytes, header declares %d", ErrCorrupt, len(payload), declaredLen)
	}
	if got := hashManifestBytes(payload); got != declaredHash {
		return nil, fmt.Errorf("%w: manifest fingerprint mismatch (header %#x, computed %#x)", ErrCorrupt, declaredHash, got)
	}
	m := &BuildManifest{}
	if err := json.Unmarshal(payload, m); err != nil {
		return nil, fmt.Errorf("%w: manifest payload: %v", ErrCorrupt, err)
	}
	if err := validateManifest(m); err != nil {
		return nil, err
	}
	return m, nil
}

// validateManifest enforces the structural invariants a resume relies
// on; anything outside them is ErrCorrupt.
func validateManifest(m *BuildManifest) error {
	if m.Generation < 1 || m.Generation > maxManifestGeneration {
		return fmt.Errorf("%w: manifest generation %d outside [1, %d]", ErrCorrupt, m.Generation, maxManifestGeneration)
	}
	if m.K < 0 || m.K > bfs.MaxPackedCost {
		return fmt.Errorf("%w: manifest horizon %d outside [0, %d]", ErrCorrupt, m.K, bfs.MaxPackedCost)
	}
	if m.Shards < 1 || m.Shards&(m.Shards-1) != 0 || m.Shards > maxShardCount {
		return fmt.Errorf("%w: manifest shard count %d is not a power of two in [1, %d]", ErrCorrupt, m.Shards, maxShardCount)
	}
	if m.LevelSlabs < 0 || m.LevelSlabs > maxManifestRuns {
		return fmt.Errorf("%w: manifest slab count %d outside [0, %d]", ErrCorrupt, m.LevelSlabs, maxManifestRuns)
	}
	if m.LevelReps < 0 || uint64(m.LevelReps) > maxTotalSlots {
		return fmt.Errorf("%w: manifest slab size %d outside [0, %d]", ErrCorrupt, m.LevelReps, maxTotalSlots)
	}
	if len(m.Levels) > m.K+1 {
		return fmt.Errorf("%w: manifest lists %d levels for horizon %d", ErrCorrupt, len(m.Levels), m.K)
	}
	checkFile := func(f ManifestFile, what string) error {
		if f.Name == "" || len(f.Name) > 255 || f.Name != filepath.Base(f.Name) ||
			strings.ContainsAny(f.Name, "/\\") || f.Name == "." || f.Name == ".." {
			return fmt.Errorf("%w: manifest %s file name %q is not a bare name", ErrCorrupt, what, f.Name)
		}
		if f.Size < 0 {
			return fmt.Errorf("%w: manifest %s file %q declares negative size", ErrCorrupt, what, f.Name)
		}
		return nil
	}
	for i, lv := range m.Levels {
		if lv.Level != i {
			return fmt.Errorf("%w: manifest level %d recorded at position %d (levels must be contiguous from 0)", ErrCorrupt, lv.Level, i)
		}
		if lv.Entries < 0 || uint64(lv.Entries) > maxTotalSlots {
			return fmt.Errorf("%w: manifest level %d declares %d entries", ErrCorrupt, lv.Level, lv.Entries)
		}
		if err := checkFile(lv.Srt, "level"); err != nil {
			return err
		}
		if err := checkFile(lv.Seq, "level"); err != nil {
			return err
		}
	}
	if len(m.Runs) > maxManifestRuns {
		return fmt.Errorf("%w: manifest lists %d sealed runs (cap %d)", ErrCorrupt, len(m.Runs), maxManifestRuns)
	}
	if len(m.Runs) > 0 && m.LevelReps < 1 {
		return fmt.Errorf("%w: manifest seals runs without a pinned slab size", ErrCorrupt)
	}
	inProgress := len(m.Levels)
	seenSlab := make(map[int]bool, len(m.Runs))
	for _, r := range m.Runs {
		if r.Level != inProgress {
			return fmt.Errorf("%w: manifest run for level %d but level %d is in progress", ErrCorrupt, r.Level, inProgress)
		}
		if r.Slab < 0 || r.Slab >= m.LevelSlabs {
			return fmt.Errorf("%w: manifest run slab %d outside [0, %d)", ErrCorrupt, r.Slab, m.LevelSlabs)
		}
		if seenSlab[r.Slab] {
			return fmt.Errorf("%w: manifest seals slab %d twice", ErrCorrupt, r.Slab)
		}
		seenSlab[r.Slab] = true
		if r.Candidates < 0 {
			return fmt.Errorf("%w: manifest run declares %d candidates", ErrCorrupt, r.Candidates)
		}
		if err := checkFile(r.File, "run"); err != nil {
			return err
		}
	}
	return nil
}

// WriteManifestFile persists a manifest atomically (temp file + rename,
// the SaveFile discipline): a crash mid-checkpoint leaves the previous
// manifest intact, never a truncated one.
func WriteManifestFile(path string, m *BuildManifest) error {
	b, err := EncodeManifest(m)
	if err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Dir(path), ".revtables-manifest-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Chmod(0o644); err != nil {
		tmp.Close()
		return err
	}
	// A checkpoint exists to survive a crash, so it must actually be on
	// disk before the rename publishes it.
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// ReadManifestFile loads and validates a manifest, bounding the read so
// a damaged (or substituted) file cannot force a large allocation.
func ReadManifestFile(path string) (*BuildManifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() > maxManifestBytes+128 {
		return nil, fmt.Errorf("%w: manifest file is %d bytes (cap %d)", ErrCorrupt, st.Size(), maxManifestBytes+128)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return DecodeManifest(b)
}
