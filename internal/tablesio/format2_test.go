package tablesio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"repro/internal/bfs"
	"repro/internal/perm"
)

// savedV2 builds k-tables and returns them with their v2 serialization.
func savedV2(t testing.TB, k int) (*bfs.Result, []byte) {
	res, err := bfs.Search(bfs.GateAlphabet(), k, nil)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveV2(&buf, res); err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

func writeTemp(t testing.TB, blob []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "tables.bin")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// checkSameTables asserts the loaded result carries exactly the original
// levels and decoded values.
func checkSameTables(t *testing.T, orig, back *bfs.Result) {
	t.Helper()
	if back.MaxCost != orig.MaxCost || back.Reduced != orig.Reduced {
		t.Fatalf("metadata mismatch: %d/%v vs %d/%v", back.MaxCost, back.Reduced, orig.MaxCost, orig.Reduced)
	}
	if back.TotalStored() != orig.TotalStored() {
		t.Fatalf("entry counts differ: %d vs %d", back.TotalStored(), orig.TotalStored())
	}
	for c := 0; c <= orig.MaxCost; c++ {
		ol, bl := orig.Level(c), back.Level(c)
		if ol.Len() != bl.Len() {
			t.Fatalf("level %d: %d vs %d entries", c, bl.Len(), ol.Len())
		}
		for i := 0; i < ol.Len(); i++ {
			if ol.At(i) != bl.At(i) {
				t.Fatalf("level %d entry %d differs: %v vs %v", c, i, bl.At(i), ol.At(i))
			}
			a, okA := orig.Lookup(ol.At(i))
			b, okB := back.Lookup(ol.At(i))
			if !okA || !okB || a != b {
				t.Fatalf("value differs for %v: %+v/%v vs %+v/%v", ol.At(i), b, okB, a, okA)
			}
		}
	}
}

func TestV2RoundTripStream(t *testing.T) {
	orig, blob := savedV2(t, 4)
	back, err := Load(bytes.NewReader(blob), bfs.GateAlphabet())
	if err != nil {
		t.Fatal(err)
	}
	checkSameTables(t, orig, back)
}

func TestV2RoundTripFile(t *testing.T) {
	orig, err := bfs.Search(bfs.GateAlphabet(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "k4.tables")
	if err := SaveFile(path, orig); err != nil {
		t.Fatal(err)
	}
	back, info, err := LoadFile(path, bfs.GateAlphabet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer back.Frozen.Close()
	if info.Version != 2 {
		t.Fatalf("SaveFile wrote version %d, want 2", info.Version)
	}
	if mmapSupported && hostLittleEndian && !info.MemoryMapped {
		t.Fatal("v2 file load skipped the mmap fast path on a capable host")
	}
	if info.Entries != orig.TotalStored() {
		t.Fatalf("info.Entries = %d, want %d", info.Entries, orig.TotalStored())
	}
	checkSameTables(t, orig, back)

	// The trusting fast path and the verifying paths must agree.
	verified, vinfo, err := LoadFile(path, bfs.GateAlphabet(), &LoadOptions{VerifyContent: true})
	if err != nil {
		t.Fatalf("VerifyContent load: %v", err)
	}
	defer verified.Frozen.Close()
	checkSameTables(t, orig, verified)
	streamed, sinfo, err := LoadFile(path, bfs.GateAlphabet(), &LoadOptions{DisableMmap: true})
	if err != nil {
		t.Fatalf("DisableMmap load: %v", err)
	}
	checkSameTables(t, orig, streamed)
	if !vinfo.MemoryMapped && mmapSupported && hostLittleEndian {
		t.Fatal("VerifyContent unexpectedly left the mmap path")
	}
	if sinfo.MemoryMapped {
		t.Fatal("DisableMmap still memory-mapped")
	}
}

// TestCrossVersionRoundTrip converts the committed v1 fixture to v2:
// the v2 bytes must be identical to SaveV2 of a fresh sequential search
// of the same tables, and load back to the same levels and values — the
// v2 slot index preserves the v1 level storage order, so nothing is lost
// or reordered across versions.
func TestCrossVersionRoundTrip(t *testing.T) {
	res, blob := v1Fixture(t)
	fromV1, err := Load(bytes.NewReader(blob), bfs.GateAlphabet())
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	if err := SaveV2(&want, res); err != nil {
		t.Fatal(err)
	}
	if err := SaveV2(&got, fromV1); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("v2 store of the loaded v1 fixture differs from the search's v2 store")
	}
	fromV2, err := Load(bytes.NewReader(got.Bytes()), bfs.GateAlphabet())
	if err != nil {
		t.Fatal(err)
	}
	checkSameTables(t, res, fromV2)
}

func TestV2TruncationDetected(t *testing.T) {
	_, blob := savedV2(t, 3)
	cuts := []int{0, 3, 40, 200, pageAlign - 1, pageAlign + 9, len(blob) / 2, len(blob) - 1}
	for _, cut := range cuts {
		if _, err := Load(bytes.NewReader(blob[:cut]), bfs.GateAlphabet()); err == nil {
			t.Fatalf("stream truncation at %d undetected", cut)
		}
		path := writeTemp(t, blob[:cut])
		if _, _, err := LoadFile(path, bfs.GateAlphabet(), nil); err == nil {
			t.Fatalf("file truncation at %d undetected", cut)
		}
	}
	// Appended garbage changes the size the geometry dictates.
	padded := append(append([]byte(nil), blob...), make([]byte, 4096)...)
	path := writeTemp(t, padded)
	if _, _, err := LoadFile(path, bfs.GateAlphabet(), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("padded file: err = %v, want ErrCorrupt", err)
	}
}

// TestV2BitFlips: a flip in any hashed region must be detected by the
// verifying loaders; a flip in alignment padding is harmless, so the
// invariant there is "either rejected or loads identically".
func TestV2BitFlips(t *testing.T) {
	orig, blob := savedV2(t, 3)
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 40; trial++ {
		corrupted := append([]byte(nil), blob...)
		pos := rng.Intn(len(corrupted))
		corrupted[pos] ^= 1 << uint(rng.Intn(8))
		back, err := Load(bytes.NewReader(corrupted), bfs.GateAlphabet())
		if err != nil {
			continue
		}
		checkSameTables(t, orig, back) // flip landed in padding
	}
}

// TestV2ForgedGeometry hand-crafts hostile headers: non-power-of-two or
// oversized shard geometry, counts that disagree, offsets that lie. All
// must fail cleanly — no panic, no allocation proportional to the forged
// numbers.
func TestV2ForgedGeometry(t *testing.T) {
	_, blob := savedV2(t, 2)
	le := binary.LittleEndian
	// reseal recomputes the header fingerprint after a mutation so the
	// forgery reaches the geometry checks instead of dying at the hash.
	reseal := func(mutate func(b []byte)) []byte {
		b := append([]byte(nil), blob...)
		mutate(b)
		maxCost := le.Uint32(b[8:])
		if maxCost > uint32(bfs.MaxPackedCost) {
			// The loader refuses to size a header for absurd horizons, so
			// the fingerprint position is unknowable; leave it stale — the
			// horizon check fires first.
			return b
		}
		n := headerFixedLen + (int(maxCost)+1)*8 + 8
		le.PutUint64(b[n-8:], hashBytesV2(b[:n-8]))
		return b
	}
	cases := map[string][]byte{
		"shardCount3":    reseal(func(b []byte) { le.PutUint32(b[36:], 3) }),
		"shardCountHuge": reseal(func(b []byte) { le.PutUint32(b[36:], 1<<20) }),
		"slotsNonPow2":   reseal(func(b []byte) { le.PutUint64(b[44:], 48) }),
		"slotsHuge":      reseal(func(b []byte) { le.PutUint64(b[44:], 1<<40) }),
		"sparseForgery":  reseal(func(b []byte) { le.PutUint64(b[44:], 1<<24) }),
		"entriesOverCap": reseal(func(b []byte) { le.PutUint64(b[52:], 1<<33+1) }),
		"entriesOverSlots": reseal(func(b []byte) {
			le.PutUint64(b[52:], le.Uint64(b[44:])*uint64(le.Uint32(b[36:]))+1)
		}),
		"lyingKeysOff": reseal(func(b []byte) { le.PutUint64(b[60:], 8192) }),
		"levelSumLow":  reseal(func(b []byte) { le.PutUint64(b[headerFixedLen:], 0) }),
		"horizonHuge":  reseal(func(b []byte) { le.PutUint32(b[8:], 77) }),
	}
	for name, forged := range cases {
		if _, err := Load(bytes.NewReader(forged), bfs.GateAlphabet()); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s via stream: err = %v, want ErrCorrupt", name, err)
		}
		path := writeTemp(t, forged)
		if _, _, err := LoadFile(path, bfs.GateAlphabet(), nil); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s via file: err = %v, want ErrCorrupt", name, err)
		}
	}
}

// TestV2EmptyTableRejected crafts a fully self-consistent store whose
// header declares zero entries (valid fingerprint, matching offsets,
// zeroed slot arrays, empty index section ending exactly at idxOff).
// It once drove the mmap loader one byte past the mapping; it must be a
// clean ErrCorrupt on every path.
func TestV2EmptyTableRejected(t *testing.T) {
	h := &headerV2{
		maxCost:       2,
		fp:            fingerprintOf(bfs.GateAlphabet()),
		flags:         flagReduced,
		shardCount:    1,
		slotsPerShard: 16,
		entryCount:    0,
		levelCounts:   []uint64{0, 0, 0},
	}
	l := computeLayoutV2(h.headerLen(), h.shardCount, h.slotsPerShard, h.entryCount, h.split())
	h.keysOff, h.valsOff, h.idxOff, h.fileSize = l.keysOff, l.valsOff, l.idxOff, l.fileSize
	h.keysHash = hashKeyWords(make([]uint64, 16))
	h.valsHash = hashValWords(make([]uint16, 16))
	h.idxHash = hashIdxWords(nil)
	blob := make([]byte, l.fileSize)
	copy(blob, encodeHeaderV2(h))
	if _, err := Load(bytes.NewReader(blob), bfs.GateAlphabet()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stream: err = %v, want ErrCorrupt", err)
	}
	path := writeTemp(t, blob)
	if _, _, err := LoadFile(path, bfs.GateAlphabet(), nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("file: err = %v, want ErrCorrupt", err)
	}
}

func TestV2WrongAlphabetRejected(t *testing.T) {
	_, blob := savedV2(t, 3)
	if _, err := Load(bytes.NewReader(blob), bfs.LinearAlphabet()); !errors.Is(err, ErrAlphabetMismatch) {
		t.Fatalf("stream: err = %v, want ErrAlphabetMismatch", err)
	}
	path := writeTemp(t, blob)
	if _, _, err := LoadFile(path, bfs.LinearAlphabet(), nil); !errors.Is(err, ErrAlphabetMismatch) {
		t.Fatalf("file: err = %v, want ErrAlphabetMismatch", err)
	}
}

// TestV2ContentCorruptionPolicy pins the two-tier integrity contract: a
// corrupted slot array is caught by the streaming loader and by
// VerifyContent, while the trusting mmap path is entitled to map it (it
// validates the header only).
func TestV2ContentCorruptionPolicy(t *testing.T) {
	_, blob := savedV2(t, 3)
	corrupted := append([]byte(nil), blob...)
	corrupted[pageAlign+17] ^= 0x20 // inside the key section
	if _, err := Load(bytes.NewReader(corrupted), bfs.GateAlphabet()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("stream: err = %v, want ErrCorrupt", err)
	}
	path := writeTemp(t, corrupted)
	if _, _, err := LoadFile(path, bfs.GateAlphabet(), &LoadOptions{VerifyContent: true}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyContent: err = %v, want ErrCorrupt", err)
	}
}

func TestLoadFileV1Fallback(t *testing.T) {
	res, _ := v1Fixture(t)
	back, info, err := LoadFile(v1FixturePath, bfs.GateAlphabet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if info.Version != 1 || info.MemoryMapped {
		t.Fatalf("v1 file reported %+v", info)
	}
	checkSameTables(t, res, back)
	if _, _, err := LoadFile(filepath.Join(t.TempDir(), "missing.tables"), bfs.GateAlphabet(), nil); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("missing file: err = %v, want os.ErrNotExist", err)
	}
}

// BenchmarkColdStart measures the acceptance metric of the zero-copy
// format: time from "store on disk" to "servable tables" for a k = 6
// table set, v2 mmap versus the verifying v2 stream, with the heap the
// load leaves behind (runtime.MemStats) reported per representative.
// REVSYNTH_COLDSTART_K overrides the depth (CI smoke uses 5).
func BenchmarkColdStart(b *testing.B) {
	k := 6
	if v := os.Getenv("REVSYNTH_COLDSTART_K"); v != "" {
		if n, err := parseInt(v); err == nil && n >= 2 && n <= 7 {
			k = n
		}
	}
	res, err := bfs.Search(bfs.GateAlphabet(), k, nil)
	if err != nil {
		b.Fatal(err)
	}
	entries := float64(res.TotalStored())
	v2Path := filepath.Join(b.TempDir(), "v2.tables")
	if err := SaveFile(v2Path, res); err != nil {
		b.Fatal(err)
	}
	res = nil

	load := func(b *testing.B, path string, opts *LoadOptions, wantMmap bool) {
		b.ReportAllocs()
		var heapPerRep float64
		for i := 0; i < b.N; i++ {
			runtime.GC()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			loaded, info, err := LoadFile(path, bfs.GateAlphabet(), opts)
			if err != nil {
				b.Fatal(err)
			}
			if wantMmap && mmapSupported && hostLittleEndian && !info.MemoryMapped {
				b.Fatal("expected the mmap fast path")
			}
			// One probe proves the tables are servable before the clock
			// stops.
			if !loaded.Contains(perm.Identity) {
				b.Fatal("loaded tables do not contain the identity")
			}
			runtime.ReadMemStats(&after)
			heapPerRep = float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / entries
			b.ReportMetric(heapPerRep, "heapB/rep")
			b.ReportMetric(float64(loaded.MemoryBytes())/entries, "tableB/rep")
			loaded.Frozen.Close()
		}
		_ = heapPerRep
	}
	b.Run("v2-mmap", func(b *testing.B) { load(b, v2Path, nil, true) })
	b.Run("v2-stream-verify", func(b *testing.B) { load(b, v2Path, &LoadOptions{DisableMmap: true}, false) })
}

func parseInt(s string) (int, error) {
	n := 0
	for _, r := range s {
		if r < '0' || r > '9' {
			return 0, errors.New("not a number")
		}
		n = n*10 + int(r-'0')
	}
	return n, nil
}
