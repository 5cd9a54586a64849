package tablesio

import (
	"bytes"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/bfs"
)

// v1FixturePath is a format v1 store of the k = 3 gate-alphabet tables
// written by the sequential search, kept from when this
// package still wrote v1: nothing writes the format any more, so the
// read path is tested against these bytes.
const v1FixturePath = "testdata/gate_k3.v1.tables"

// v1Fixture returns the fixture's bytes together with the search result
// it was written from.
func v1Fixture(t testing.TB) (*bfs.Result, []byte) {
	t.Helper()
	blob, err := os.ReadFile(v1FixturePath)
	if err != nil {
		t.Fatal(err)
	}
	res, err := bfs.Search(bfs.GateAlphabet(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	return res, blob
}

func TestRoundTrip(t *testing.T) {
	orig, blob := v1Fixture(t)
	back, err := Load(bytes.NewReader(blob), bfs.GateAlphabet())
	if err != nil {
		t.Fatal(err)
	}
	checkSameTables(t, orig, back)
}

func TestWrongAlphabetRejected(t *testing.T) {
	_, blob := v1Fixture(t)
	if _, err := Load(bytes.NewReader(blob), bfs.LinearAlphabet()); err == nil {
		t.Fatal("loading gate tables against the linear alphabet succeeded")
	}
	if _, err := Load(bytes.NewReader(blob), nil); err == nil {
		t.Fatal("nil alphabet accepted")
	}
}

func TestTruncationDetected(t *testing.T) {
	_, blob := v1Fixture(t)
	for _, cut := range []int{0, 3, 10, 40, len(blob) / 2, len(blob) - 1} {
		if _, err := Load(bytes.NewReader(blob[:cut]), bfs.GateAlphabet()); err == nil {
			t.Fatalf("truncation at %d undetected", cut)
		}
	}
}

func TestBitFlipDetected(t *testing.T) {
	_, blob := v1Fixture(t)
	rng := rand.New(rand.NewSource(2))
	detected := 0
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		corrupted := append([]byte(nil), blob...)
		pos := rng.Intn(len(corrupted))
		corrupted[pos] ^= 1 << uint(rng.Intn(8))
		if _, err := Load(bytes.NewReader(corrupted), bfs.GateAlphabet()); err != nil {
			detected++
		}
	}
	// Every single-bit flip lands in magic, header, an entry, or the
	// checksum itself; all are covered by the FNV checksum or field
	// validation, so detection must be complete.
	if detected != trials {
		t.Fatalf("only %d/%d single-bit corruptions detected", detected, trials)
	}
}

func TestBadMagicRejected(t *testing.T) {
	_, blob := v1Fixture(t)
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := Load(bytes.NewReader(bad), bfs.GateAlphabet()); err == nil {
		t.Fatal("bad magic accepted")
	}
}

func TestSaveNilRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := SaveV2(&buf, nil); err == nil {
		t.Fatal("SaveV2(nil) succeeded")
	}
	if err := SaveSplit(&buf, nil, 2, 0); err == nil {
		t.Fatal("SaveSplit(nil) succeeded")
	}
	path := filepath.Join(t.TempDir(), "nil.tables")
	if err := SaveFile(path, nil); err == nil {
		t.Fatal("SaveFile(nil) succeeded")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed SaveFile published %s: %v", path, err)
	}
}

func TestVersionGating(t *testing.T) {
	_, blob := v1Fixture(t)
	// A future format version must be rejected with ErrUnsupportedVersion
	// (the checksum would also fail, but the version gate fires first and
	// precisely).
	future := append([]byte(nil), blob...)
	future[3] = '3'
	_, err := Load(bytes.NewReader(future), bfs.GateAlphabet())
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("future version: err = %v, want ErrUnsupportedVersion", err)
	}
	// A v1 stream relabeled as v2 must fail the v2 header fingerprint,
	// not be parsed as a v2 geometry.
	relabeled := append([]byte(nil), blob...)
	relabeled[3] = '2'
	_, err = Load(bytes.NewReader(relabeled), bfs.GateAlphabet())
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("relabeled v1 stream: err = %v, want ErrCorrupt", err)
	}
	// A stream that is not a tables file at all reports ErrBadMagic.
	_, err = Load(bytes.NewReader([]byte("PNG\x0d\x0a\x1a\x0a")), bfs.GateAlphabet())
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("foreign stream: err = %v, want ErrBadMagic", err)
	}
}

func TestSentinelErrors(t *testing.T) {
	_, blob := v1Fixture(t)
	if _, err := Load(bytes.NewReader(blob[:len(blob)-1]), bfs.GateAlphabet()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncation: err = %v, want ErrCorrupt", err)
	}
	flipped := append([]byte(nil), blob...)
	flipped[len(flipped)/2] ^= 0x40
	if _, err := Load(bytes.NewReader(flipped), bfs.GateAlphabet()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: err = %v, want ErrCorrupt", err)
	}
	if _, err := Load(bytes.NewReader(blob), bfs.LinearAlphabet()); !errors.Is(err, ErrAlphabetMismatch) {
		t.Fatalf("wrong alphabet: err = %v, want ErrAlphabetMismatch", err)
	}
}

func TestLoadProgressStreams(t *testing.T) {
	res, blob := v1Fixture(t)
	var levels, entries []int
	_, err := LoadWithOptions(bytes.NewReader(blob), bfs.GateAlphabet(), &LoadOptions{
		Progress: func(level, n int) { levels = append(levels, level); entries = append(entries, n) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(levels) != res.MaxCost+1 {
		t.Fatalf("progress fired %d times, want %d", len(levels), res.MaxCost+1)
	}
	for c := 0; c <= res.MaxCost; c++ {
		if levels[c] != c || entries[c] != res.LevelLen(c) {
			t.Fatalf("progress level %d reported (%d, %d), want (%d, %d)",
				c, levels[c], entries[c], c, res.LevelLen(c))
		}
	}
}

func TestMaxEntriesCap(t *testing.T) {
	_, blob := v1Fixture(t)
	_, err := LoadWithOptions(bytes.NewReader(blob), bfs.GateAlphabet(), &LoadOptions{MaxEntries: 10})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-cap load: err = %v, want ErrCorrupt", err)
	}
}

func TestForgedLevelSizeOverflowRejected(t *testing.T) {
	// Header layout: magic 4 + flags 4 + maxCost 4 + fingerprint 24 = 36
	// bytes, then one uint64 level size per cost level. A level size of
	// 2^64-1 once wrapped the running total back under the entry cap and
	// drove a negative allocation size; it must be a clean ErrCorrupt.
	_, blob := v1Fixture(t)
	for _, off := range []int{36, 44, 52, 60} {
		forged := append([]byte(nil), blob...)
		for i := 0; i < 8; i++ {
			forged[off+i] = 0xFF
		}
		_, err := Load(bytes.NewReader(forged), bfs.GateAlphabet())
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("forged level size at offset %d: err = %v, want ErrCorrupt", off, err)
		}
	}
}
