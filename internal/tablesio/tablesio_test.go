package tablesio

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bfs"
)

// TestRoundTrip: a store loads back to the same levels and values, and
// a loaded result — streamed onto the heap or memory-mapped — saves
// back to the very same bytes, so rewriting a store (revbfs -load X
// -save Y) is lossless.
func TestRoundTrip(t *testing.T) {
	orig, blob := savedV2(t, 3)
	streamed, err := Load(bytes.NewReader(blob), bfs.GateAlphabet())
	if err != nil {
		t.Fatal(err)
	}
	checkSameTables(t, orig, streamed)
	mapped, _, err := LoadFile(writeTemp(t, blob), bfs.GateAlphabet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer mapped.Frozen.Close()
	for name, res := range map[string]*bfs.Result{"streamed": streamed, "mapped": mapped} {
		path := filepath.Join(t.TempDir(), name+".tables")
		if err := SaveFile(path, res); err != nil {
			t.Fatal(err)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, blob) {
			t.Fatalf("re-saving the %s load changed the store (%d vs %d bytes)", name, len(again), len(blob))
		}
	}
}

func TestWrongAlphabetRejected(t *testing.T) {
	_, blob := savedV2(t, 3)
	if _, err := Load(bytes.NewReader(blob), bfs.LinearAlphabet()); err == nil {
		t.Fatal("loading gate tables against the linear alphabet succeeded")
	}
	if _, err := Load(bytes.NewReader(blob), nil); err == nil {
		t.Fatal("nil alphabet accepted")
	}
}

func TestBadMagicRejected(t *testing.T) {
	_, blob := savedV2(t, 3)
	bad := append([]byte(nil), blob...)
	bad[0] = 'X'
	if _, err := Load(bytes.NewReader(bad), bfs.GateAlphabet()); !errors.Is(err, ErrBadMagic) {
		t.Fatalf("bad magic: err = %v, want ErrBadMagic", err)
	}
}

func TestSaveNilRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "nil.tables")
	if err := SaveFile(path, nil); err == nil {
		t.Fatal("SaveFile(nil) succeeded")
	}
	if err := SaveSplitFile(path, nil, 2, 0); err == nil {
		t.Fatal("SaveSplitFile(nil) succeeded")
	}
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed save published %s: %v", path, err)
	}
}

func TestVersionGating(t *testing.T) {
	_, blob := savedV2(t, 3)
	// A future format version must be rejected with ErrUnsupportedVersion
	// (the header fingerprint would also fail, but the version gate fires
	// first and precisely).
	future := append([]byte(nil), blob...)
	future[3] = '3'
	_, err := Load(bytes.NewReader(future), bfs.GateAlphabet())
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("future version: err = %v, want ErrUnsupportedVersion", err)
	}
	// A header field changed behind the version byte must fail the
	// header fingerprint, not be parsed as a different geometry.
	reflagged := append([]byte(nil), blob...)
	reflagged[4] ^= flagReduced
	_, err = Load(bytes.NewReader(reflagged), bfs.GateAlphabet())
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("altered header: err = %v, want ErrCorrupt", err)
	}
	// A stream that is not a tables file at all reports ErrBadMagic.
	_, err = Load(bytes.NewReader([]byte("PNG\x0d\x0a\x1a\x0a")), bfs.GateAlphabet())
	if !errors.Is(err, ErrBadMagic) {
		t.Fatalf("foreign stream: err = %v, want ErrBadMagic", err)
	}
}

// TestV1StoreUnsupported: format v1 (magic "RVT1") is no longer read; a
// store of it fails typed on both load paths, and the message names the
// one version this build reads.
func TestV1StoreUnsupported(t *testing.T) {
	_, blob := savedV2(t, 3)
	v1 := append([]byte(nil), blob...)
	v1[3] = '1'
	_, err := Load(bytes.NewReader(v1), bfs.GateAlphabet())
	if !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("Load: err = %v, want ErrUnsupportedVersion", err)
	}
	if !strings.Contains(err.Error(), "reads only version '2'") {
		t.Fatalf("Load: message %q does not name v2 as the readable version", err)
	}
	if _, _, err := LoadFile(writeTemp(t, v1), bfs.GateAlphabet(), nil); !errors.Is(err, ErrUnsupportedVersion) {
		t.Fatalf("LoadFile: err = %v, want ErrUnsupportedVersion", err)
	}
}

func TestSentinelErrors(t *testing.T) {
	_, blob := savedV2(t, 3)
	if _, err := Load(bytes.NewReader(blob[:len(blob)-1]), bfs.GateAlphabet()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncation: err = %v, want ErrCorrupt", err)
	}
	flipped := append([]byte(nil), blob...)
	flipped[pageAlign+40] ^= 0x40 // inside the key section
	if _, err := Load(bytes.NewReader(flipped), bfs.GateAlphabet()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit flip: err = %v, want ErrCorrupt", err)
	}
	if _, err := Load(bytes.NewReader(blob), bfs.LinearAlphabet()); !errors.Is(err, ErrAlphabetMismatch) {
		t.Fatalf("wrong alphabet: err = %v, want ErrAlphabetMismatch", err)
	}
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "missing.tables"), bfs.GateAlphabet(), nil); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want os.ErrNotExist", err)
	}
}

func TestLoadProgressStreams(t *testing.T) {
	res, blob := savedV2(t, 3)
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
	_, blob := savedV2(t, 3)
	_, err := LoadWithOptions(bytes.NewReader(blob), bfs.GateAlphabet(), &LoadOptions{MaxEntries: 10})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("over-cap load: err = %v, want ErrCorrupt", err)
	}
}
