package tablesio

import (
	"bytes"
	"errors"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/bfs"
	"repro/internal/hashtab"
	"repro/internal/tables"
)

// TestStreamWriterByteIdentity: a store emitted shard-by-shard through
// the StreamWriter the way the out-of-core builder drives it — index
// slots resolved through the probe view, appended in awkward chunks —
// must be byte-identical to SaveFile of the same result.
func TestStreamWriterByteIdentity(t *testing.T) {
	res, ref := savedV2(t, 3)

	ft, idx, counts := res.CompactView()
	lc := make([]int64, len(counts))
	for c, n := range counts {
		lc[c] = int64(n)
	}
	path := filepath.Join(t.TempDir(), "streamed.rvt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	w, err := NewStreamWriter(f, StreamGeometry{
		Alphabet:      res.Alphabet,
		MaxCost:       res.MaxCost,
		Reduced:       res.Reduced,
		ShardCount:    ft.ShardCount(),
		SlotsPerShard: ft.SlotsPerShard(),
		EntryCount:    int64(ft.Len()),
		LevelCounts:   lc,
	})
	if err != nil {
		t.Fatal(err)
	}
	sps := ft.SlotsPerShard()
	keys, vals := ft.RawKeys(), ft.RawVals()
	for s := 0; s < ft.ShardCount(); s++ {
		if err := w.WriteShard(keys[s*sps:(s+1)*sps], vals[s*sps:(s+1)*sps]); err != nil {
			t.Fatal(err)
		}
	}
	// Resolve the index through the probe view (the builder's path: the
	// slots come off the file just written, not the in-memory table),
	// appending in deliberately awkward chunks.
	pv, release, err := w.ProbeView()
	if err != nil {
		t.Fatal(err)
	}
	streamIdx := make([]uint32, 0, len(idx))
	for c := 0; c <= res.MaxCost; c++ {
		lv := res.Level(c)
		for i := 0; i < lv.Len(); i++ {
			slot, ok := pv.SlotOf(uint64(lv.At(i)))
			if !ok {
				t.Fatalf("level %d entry %v missing from probe view", c, lv.At(i))
			}
			streamIdx = append(streamIdx, slot)
		}
	}
	for lo := 0; lo < len(streamIdx); lo += 7 {
		hi := min(lo+7, len(streamIdx))
		if err := w.AppendIndex(streamIdx[lo:hi]); err != nil {
			t.Fatal(err)
		}
	}
	if err := release(); err != nil {
		t.Fatal(err)
	}
	if err := w.Finalize(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, ref) {
		t.Fatalf("streamed store differs from SaveFile (%d vs %d bytes)", len(got), len(ref))
	}
	// And it loads back as a working store.
	loaded, info, err := LoadFile(path, bfs.GateAlphabet(), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Frozen.Close()
	if loaded.TotalStored() != res.TotalStored() {
		t.Fatalf("loaded %d entries, want %d (info %s)", loaded.TotalStored(), res.TotalStored(), info)
	}
}

// TestStreamWriterSplitByteIdentity: a split store written through the
// StreamWriter from an independent reference layout must match
// SaveSplitFiles' cut byte for byte. The reference takes range i's
// entries in level order, places each of the range's shards with
// PlaceShardCanonical at the slot count its fullest shard needs, and
// resolves the level index with SlotOf, never reading the full store's
// slot arrays. Two ways cover a range of whole shards and a range of
// half a shard.
func TestStreamWriterSplitByteIdentity(t *testing.T) {
	res, err := bfs.Search(bfs.GateAlphabet(), 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	full := fullStore(t, res)
	fullFT, _, counts := res.CompactView()
	glc := make([]int64, len(counts))
	for c, cn := range counts {
		glc[c] = int64(cn)
	}
	for _, n := range []int{2, 16} {
		sc := max(fullFT.ShardCount()/n, 1)
		shift := uint(64 - bits.TrailingZeros(uint(sc*n)))
		for i, refPath := range cutStore(t, full, n) {
			ref, err := os.ReadFile(refPath)
			if err != nil {
				t.Fatal(err)
			}
			// Range i's entries in level order, grouped by split shard.
			lo, hi := tables.RangeOf(i, n)
			var (
				keys    []uint64
				gpos    []uint32
				lc      = make([]int64, len(counts))
				shardKs = make([][]uint64, sc)
				shardVs = make([][]uint16, sc)
				fullest int
			)
			for c := 0; c <= res.MaxCost; c++ {
				lv := res.Level(c)
				for j := 0; j < lv.Len(); j++ {
					k := uint64(lv.At(j))
					if !tables.KeyInRange(k, lo, hi) {
						continue
					}
					v, _ := fullFT.Lookup(k)
					s := int(hashtab.Hash64Shift(k)>>shift) - i*sc
					shardKs[s], shardVs[s] = append(shardKs[s], k), append(shardVs[s], v)
					fullest = max(fullest, len(shardKs[s]))
					keys = append(keys, k)
					gpos = append(gpos, uint32(j))
					lc[c]++
				}
			}
			sps := hashtab.FrozenSlotsPerShard(fullest)
			slotKeys, slotVals := make([]uint64, sc*sps), make([]uint16, sc*sps)
			var scratch hashtab.PlaceScratch
			for s := range sc {
				hashtab.PlaceShardCanonical(shardKs[s], shardVs[s], slotKeys[s*sps:(s+1)*sps], slotVals[s*sps:(s+1)*sps], &scratch)
			}
			ft, err := hashtab.NewFrozenSplit(slotKeys, slotVals, sc, len(keys), n, i)
			if err != nil {
				t.Fatal(err)
			}
			idx := make([]uint32, len(keys))
			for j, k := range keys {
				slot, ok := ft.SlotOf(k)
				if !ok {
					t.Fatalf("split %d/%d entry %#x missing from its reference layout", i, n, k)
				}
				idx[j] = slot
			}
			path := filepath.Join(t.TempDir(), "split.rvt")
			f, err := os.Create(path)
			if err != nil {
				t.Fatal(err)
			}
			w, err := NewStreamWriter(f, StreamGeometry{
				Alphabet:          res.Alphabet,
				MaxCost:           res.MaxCost,
				Reduced:           res.Reduced,
				ShardCount:        sc,
				SlotsPerShard:     sps,
				EntryCount:        int64(len(keys)),
				LevelCounts:       lc,
				SplitN:            n,
				SplitIdx:          i,
				GlobalEntries:     int64(res.TotalStored()),
				GlobalLevelCounts: glc,
			})
			if err != nil {
				t.Fatal(err)
			}
			for s := range sc {
				if err := w.WriteShard(slotKeys[s*sps:(s+1)*sps], slotVals[s*sps:(s+1)*sps]); err != nil {
					t.Fatal(err)
				}
			}
			if err := w.AppendIndex(idx); err != nil {
				t.Fatal(err)
			}
			if err := w.AppendGlobalPos(gpos); err != nil {
				t.Fatal(err)
			}
			if err := w.Finalize(); err != nil {
				t.Fatal(err)
			}
			f.Close()
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, ref) {
				t.Fatalf("streamed split %d/%d differs from SaveSplitFiles (%d vs %d bytes)", i, n, len(got), len(ref))
			}
		}
	}
}

// TestContentHashStreaming: the artifact fingerprint does not depend on
// how the bytes are cut into writes, Sum64 does not disturb the stream,
// and the last byte of a partial word counts.
func TestContentHashStreaming(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for n := 0; n < 80; n++ {
		b := make([]byte, n)
		rng.Read(b)
		want := NewContentHash()
		want.Write(b)
		for trial := 0; trial < 20; trial++ {
			h := NewContentHash()
			for rest := b; len(rest) > 0; {
				k := 1 + rng.Intn(len(rest))
				h.Write(rest[:k])
				h.Sum64()
				rest = rest[k:]
			}
			if h.Sum64() != want.Sum64() {
				t.Fatalf("%d bytes: chunked fingerprint %#x, one write %#x", n, h.Sum64(), want.Sum64())
			}
		}
		if n > 0 {
			c := append([]byte(nil), b...)
			c[n-1] ^= 1
			other := NewContentHash()
			other.Write(c)
			if other.Sum64() == want.Sum64() {
				t.Fatalf("%d bytes: flipping the last byte kept the fingerprint", n)
			}
		}
	}
}

// TestManifestRoundTrip: encode → decode returns an equal manifest, and
// the file helpers keep the atomic-update discipline.
func TestManifestRoundTrip(t *testing.T) {
	m := &BuildManifest{
		Generation: 3,
		K:          6,
		Reduced:    true,
		Alphabet:   tables.FingerprintOf(bfs.GateAlphabet()),
		Shards:     128,
		LevelSlabs: 2,
		LevelReps:  33,
		Levels: []ManifestLevel{
			{Level: 0, Entries: 1,
				Srt: ManifestFile{Name: "level_0.srt", Size: 10, Hash: 1},
				Seq: ManifestFile{Name: "level_0.seq", Size: 8, Hash: 2}},
		},
		Runs: []ManifestRun{
			{Level: 1, Slab: 1, Candidates: 64, File: ManifestFile{Name: "run_1_1.run", Size: 1152, Hash: 0xdeadbeefdeadbeef}},
		},
	}
	b, err := EncodeManifest(m)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeManifest(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatalf("round trip mismatch:\n  in  %+v\n  out %+v", m, got)
	}
	path := filepath.Join(t.TempDir(), "MANIFEST")
	if err := WriteManifestFile(path, m); err != nil {
		t.Fatal(err)
	}
	got, err = ReadManifestFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m, got) {
		t.Fatal("file round trip mismatch")
	}
	// Flip one payload byte: typed corruption.
	raw, _ := os.ReadFile(path)
	raw[len(raw)-3] ^= 0x10
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadManifestFile(path); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered manifest: got %v, want ErrCorrupt", err)
	}
}

// TestManifestRejectsHostileNames: a manifest whose artifact names could
// escape the work directory must never validate.
func TestManifestRejectsHostileNames(t *testing.T) {
	for _, name := range []string{"", "..", "a/b", `a\b`, "/etc/passwd", "../x"} {
		m := &BuildManifest{
			Generation: 1, K: 2, Shards: 8,
			Levels: []ManifestLevel{{Level: 0, Entries: 1,
				Srt: ManifestFile{Name: name, Size: 1},
				Seq: ManifestFile{Name: "ok.seq", Size: 1}}},
		}
		b, err := EncodeManifest(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := DecodeManifest(b); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("name %q: got %v, want ErrCorrupt", name, err)
		}
	}
}
