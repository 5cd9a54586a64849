package tablesio

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"

	"repro/internal/bfs"
	"repro/internal/tables"
)

// FuzzLoad feeds arbitrary byte streams to the loader. The invariant is
// total: corrupted magic, retired versions, truncated streams,
// bit-flipped sections, forged headers and wrong-alphabet fingerprints
// must all come back as errors — never a panic, and never an allocation
// proportional to a lying header field (the MaxEntries cap plus chunked
// section reads bound memory by the actual stream length).
func FuzzLoad(f *testing.F) {
	// The valid zero-copy stream plus the hostile variants its loader
	// must survive — truncated headers, truncated slot arrays, flipped
	// section bytes, retired and future versions, and forged geometry
	// (shard counts, slot sizes, offsets, split extensions) that must
	// fail cleanly instead of OOMing or overflowing the layout arithmetic.
	_, blob := savedV2(f, 3)
	split, err := os.ReadFile(cutStore(f, writeTemp(f, blob), 2)[0])
	if err != nil {
		f.Fatal(err)
	}
	f.Add([]byte{}) // empty
	f.Add(blob[:3]) // truncated magic
	f.Add(blob)
	f.Add(blob[:40])               // truncated fixed header
	f.Add(blob[:headerFixedLen+4]) // truncated level counts
	f.Add(blob[:pageAlign+11])     // truncated key section
	f.Add(blob[:len(blob)-1])      // truncated index padding
	corrupt := func(base []byte, pos int, bit uint) []byte {
		c := append([]byte(nil), base...)
		c[pos] ^= 1 << bit
		return c
	}
	relabel := func(version byte) []byte {
		c := append([]byte(nil), blob...)
		c[3] = version
		return c
	}
	f.Add(relabel('1'))                     // retired format v1
	f.Add(relabel('3'))                     // future version
	f.Add(corrupt(blob, 3, 0))              // version byte
	f.Add(corrupt(blob, 8, 1))              // maxCost
	f.Add(corrupt(blob, 36, 0))             // shard count
	f.Add(corrupt(blob, 44, 7))             // slots per shard
	f.Add(corrupt(blob, 60, 3))             // keys offset
	f.Add(corrupt(blob, pageAlign, 5))      // key section content
	f.Add(corrupt(blob, len(blob)-5, 2))    // index section content
	f.Add(split)                            // split store (needs AllowSplit)
	f.Add(split[:len(split)-5])             // truncated global positions
	f.Add(corrupt(split, len(split)-13, 4)) // global-position content
	// reseal recomputes the header fingerprint after a mutation so the
	// forgery reaches the geometry checks instead of dying at the hash.
	le := binary.LittleEndian
	reseal := func(base []byte, mutate func(b []byte)) []byte {
		b := append([]byte(nil), base...)
		mutate(b)
		maxCost := le.Uint32(b[8:])
		if maxCost > uint32(bfs.MaxPackedCost) {
			return b
		}
		n := headerLenFor(le.Uint32(b[4:]), maxCost)
		if n+8 <= len(b) {
			le.PutUint64(b[n-8:], hashBytesV2(b[:n-8]))
		}
		return b
	}
	f.Add(reseal(blob, func(b []byte) { le.PutUint32(b[36:], 3) }))                  // non-pow2 shards
	f.Add(reseal(blob, func(b []byte) { le.PutUint64(b[44:], 1<<40) }))              // absurd slots
	f.Add(reseal(blob, func(b []byte) { le.PutUint64(b[52:], 1<<50) }))              // absurd entries
	f.Add(reseal(blob, func(b []byte) { le.PutUint64(b[84:], ^uint64(0)) }))         // lying file size
	f.Add(reseal(blob, func(b []byte) { le.PutUint32(b[12:], 31) }))                 // other alphabet
	f.Add(reseal(blob, func(b []byte) { le.PutUint32(b[40:], 7) }))                  // horizon > 2k
	f.Add(reseal(blob, func(b []byte) { le.PutUint64(b[headerFixedLen:], 0) }))      // level sum low
	f.Add(reseal(split, func(b []byte) { le.PutUint32(b[headerFixedLen+8*4:], 3) })) // split count 3 (k=3: 4 level counts)

	f.Fuzz(func(t *testing.T, data []byte) {
		// A tight entry cap keeps even "plausible" fuzzed headers from
		// committing real memory; correctness of the cap itself is
		// covered by TestMaxEntriesCap.
		res, err := LoadWithOptions(bytes.NewReader(data), bfs.GateAlphabet(), &LoadOptions{MaxEntries: 1 << 16})
		if err != nil {
			return
		}
		// Accepted streams must be internally consistent: every level
		// entry present in the table.
		if res == nil {
			t.Fatal("accepted stream produced nil result")
		}
		n := 0
		for c := 0; c <= res.MaxCost; c++ {
			lvl := res.Level(c)
			n += lvl.Len()
			for i := 0; i < lvl.Len(); i++ {
				rep := lvl.At(i)
				if !res.Contains(rep) {
					t.Fatalf("level %d entry %v missing from table", c, rep)
				}
				if cost, ok := res.CostOf(rep); !ok || cost != c {
					t.Fatalf("level %d entry %v reports cost %d/%v", c, rep, cost, ok)
				}
			}
		}
		if n != res.TotalStored() {
			t.Fatalf("levels carry %d entries, table %d", n, res.TotalStored())
		}
	})
}

// FuzzManifest feeds arbitrary bytes to the checkpoint-manifest decoder,
// mirroring FuzzLoad's forged-header guards: a forged or truncated
// manifest must fail with a typed sentinel — never a panic, never an
// allocation driven by a lying length field, and never a "valid"
// manifest whose file names could steer a resume outside its work
// directory.
func FuzzManifest(f *testing.F) {
	valid := &BuildManifest{
		Generation: 2,
		K:          5,
		Reduced:    true,
		Alphabet:   tables.FingerprintOf(bfs.GateAlphabet()),
		Shards:     64,
		LevelSlabs: 3,
		LevelReps:  50,
		Levels: []ManifestLevel{
			{Level: 0, Entries: 1,
				Srt: ManifestFile{Name: "level_0.srt", Size: 10, Hash: 0x1234},
				Seq: ManifestFile{Name: "level_0.seq", Size: 8, Hash: 0x5678}},
			{Level: 1, Entries: 4,
				Srt: ManifestFile{Name: "level_1.srt", Size: 40, Hash: 0x9abc},
				Seq: ManifestFile{Name: "level_1.seq", Size: 32, Hash: 0xdef0}},
		},
		Runs: []ManifestRun{
			{Level: 2, Slab: 0, Candidates: 128, File: ManifestFile{Name: "run_2_0.run", Size: 2304, Hash: 0x42}},
			{Level: 2, Slab: 2, Candidates: 64, File: ManifestFile{Name: "run_2_2.run", Size: 1152, Hash: 0x43}},
		},
	}
	blob, err := EncodeManifest(valid)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(blob)
	f.Add(blob[:len(blob)/2]) // truncated payload
	f.Add(blob[:4])           // truncated magic
	f.Add([]byte{})
	f.Add([]byte(manifestMagic + " 0000000000000000 99999999999999\n{}")) // lying length
	f.Add([]byte("RVTM9 0000000000000000 2\n{}"))                         // future envelope
	f.Add([]byte("RVTM1 0000000000000000 2\n{}"))                         // retired envelope
	corrupt := func(pos int, bit uint) []byte {
		c := append([]byte(nil), blob...)
		c[pos] ^= 1 << bit
		return c
	}
	f.Add(corrupt(0, 1))           // magic
	f.Add(corrupt(8, 3))           // fingerprint hex
	f.Add(corrupt(len(blob)-2, 5)) // payload
	// Resealed forgeries: structurally wrong payloads behind a correct
	// envelope, which must be caught by validation, not the checksum.
	reseal := func(mutate func(m *BuildManifest)) []byte {
		m := *valid
		m.Levels = append([]ManifestLevel(nil), valid.Levels...)
		m.Runs = append([]ManifestRun(nil), valid.Runs...)
		mutate(&m)
		b, err := EncodeManifest(&m)
		if err != nil {
			return nil
		}
		return b
	}
	f.Add(reseal(func(m *BuildManifest) { m.Levels[1].Srt.Name = "../../etc/passwd" }))
	f.Add(reseal(func(m *BuildManifest) { m.Levels[1].Srt.Name = "a/b.srt" }))
	f.Add(reseal(func(m *BuildManifest) { m.Shards = 65 }))
	f.Add(reseal(func(m *BuildManifest) { m.Generation = 0 }))
	f.Add(reseal(func(m *BuildManifest) { m.Runs[0].Slab = 99 }))
	f.Add(reseal(func(m *BuildManifest) { m.Runs[1].Slab = 0 }))
	f.Add(reseal(func(m *BuildManifest) { m.LevelReps = 0 }))
	f.Add(reseal(func(m *BuildManifest) { m.LevelReps = -1 }))
	f.Add(reseal(func(m *BuildManifest) { m.Levels[1].Level = 7 }))
	f.Add(reseal(func(m *BuildManifest) { m.K = 77 }))
	f.Add(reseal(func(m *BuildManifest) { m.Levels[0].Entries = -1 }))
	// Envelope with a huge declared length but a matching small payload
	// (cap check must fire before any comparison with real bytes).
	big := fmt.Sprintf("%s %016x %d\n{}", manifestMagic, hashManifestBytes([]byte("{}")), maxManifestBytes+1)
	f.Add([]byte(big))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := DecodeManifest(data)
		if err != nil {
			if !errors.Is(err, ErrBadMagic) && !errors.Is(err, ErrUnsupportedVersion) && !errors.Is(err, ErrCorrupt) {
				t.Fatalf("untyped manifest error: %v", err)
			}
			return
		}
		// Accepted manifests must be safe to act on: contiguous levels,
		// bare file names, in-range runs — and must round-trip.
		for i, lv := range m.Levels {
			if lv.Level != i {
				t.Fatalf("accepted manifest with level %d at position %d", lv.Level, i)
			}
		}
		for _, r := range m.Runs {
			if strings.ContainsAny(r.File.Name, "/\\") || r.File.Name == ".." {
				t.Fatalf("accepted manifest with path-like run name %q", r.File.Name)
			}
			if r.Slab < 0 || r.Slab >= m.LevelSlabs {
				t.Fatalf("accepted manifest with out-of-range slab %d", r.Slab)
			}
			if m.LevelReps < 1 {
				t.Fatalf("accepted manifest with sealed runs but slab size %d", m.LevelReps)
			}
		}
		re, err := EncodeManifest(m)
		if err != nil {
			t.Fatalf("accepted manifest does not re-encode: %v", err)
		}
		if _, err := DecodeManifest(re); err != nil {
			t.Fatalf("re-encoded manifest does not decode: %v", err)
		}
	})
}
